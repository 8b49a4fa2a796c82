package service

// Anti-entropy support: fleet replicas periodically exchange verdict
// cache digests and pull entries they are missing, so a verdict
// computed once becomes warm everywhere. The wire payload is exactly
// the persistent cache's snapshot framing (store.EncodeRecord frames
// wrapping kind-tagged JSON), which buys the same guarantee the
// snapshot file has: a stale-schema or corrupt entry is skipped and
// counted, never loaded half-blank — anti-entropy can spread verdicts,
// not corruption.

// CacheKeys returns the keys currently in the verdict cache, least
// recently used first (the order Entries reports).
func (s *Server) CacheKeys() []string {
	entries := s.cache.Entries()
	keys := make([]string, len(entries))
	for i, e := range entries {
		keys[i] = e.Key
	}
	return keys
}

// CacheFree returns how many verdicts the cache can take before it is
// full. Anti-entropy pulls load only into free slots, so a puller with
// none has nothing to gain from a round.
func (s *Server) CacheFree() int { return s.cache.Free() }

// EncodeCacheEntriesFor renders up to max of the named cache entries in
// snapshot framing (max ≤ 0 means all). Keys not present (evicted since
// the digest) are silently skipped — anti-entropy is best-effort.
func (s *Server) EncodeCacheEntriesFor(keys []string, max int) []byte {
	if len(keys) == 0 {
		return nil
	}
	want := make(map[string]bool, len(keys))
	for _, k := range keys {
		want[k] = true
	}
	all := s.cache.Entries()
	// Walk most recently used first so a capped pull ships the hottest
	// entries, not the coldest.
	picked := all[:0]
	for i := len(all) - 1; i >= 0; i-- {
		if want[all[i].Key] {
			picked = append(picked, all[i])
			if max > 0 && len(picked) >= max {
				break
			}
		}
	}
	// Anti-entropy streams carry no journal checkpoint: the receiver's
	// journal numbering is its own.
	return encodeCacheEntries(0, picked)
}

// LoadColdCacheEntries decodes a snapshot-framed entry stream and
// inserts every entry that survives the framing, JSON, and kind checks
// — and is not already present — at the cold end of the LRU. Cold
// insertion means synced verdicts fill idle cache capacity without ever
// evicting an entry this replica earned through its own traffic.
// Returns the number of entries loaded and the number skipped (corrupt,
// stale schema, already present, or cache full).
func (s *Server) LoadColdCacheEntries(b []byte) (loaded, skipped int64) {
	entries, _, skippedDecode := decodeCacheEntries(b)
	skipped = skippedDecode
	for _, e := range entries {
		if s.cache.PutCold(e.Key, e.Val) {
			loaded++
		} else {
			skipped++
		}
	}
	return loaded, skipped
}
