package fleet

import (
	"fmt"
	"time"

	"repro/internal/service"
)

// Anti-entropy: each replica periodically picks one live peer
// (round-robin over the sorted live set), sends a digest frame listing
// the cache keys it already holds, and receives back the entries the
// peer has that it lacks, encoded with the persistent cache's
// kind-tagged snapshot framing. Pulled entries land at the cold end of
// the LRU and only into spare capacity, so sync never evicts verdicts
// a replica earned by serving its own traffic; entries whose kind or
// schema no longer decodes are skipped and counted, exactly like a
// stale snapshot at reload. The exchange is pull-only and pairwise, so
// a partitioned or crashed peer costs one failed round, never a wedged
// loop — and after a heal, the verdicts computed on the other side of
// the cut diffuse back in O(log N) rounds.

// aeLoop runs periodic anti-entropy rounds. A negative interval means
// manual mode (rounds run only via AntiEntropyRound); the loop exits
// immediately and readiness does not wait on a first round.
func (rp *Replica) aeLoop(stop chan struct{}) {
	defer rp.wg.Done()
	interval := rp.f.cfg.AntiEntropyInterval
	if interval < 0 {
		return
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	rp.AntiEntropyRound()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			rp.AntiEntropyRound()
		}
	}
}

// AntiEntropyRound runs one digest/pull exchange against the next live
// peer in round-robin order. It returns the number of entries pulled.
// A fleet of one (or a fully partitioned replica) completes the round
// trivially — with no reachable peer there is nothing to reconcile, so
// the replica still becomes ready.
func (rp *Replica) AntiEntropyRound() int {
	svc := rp.Service()
	if svc == nil {
		return 0
	}
	live := rp.livePeers()
	if len(live) == 0 {
		rp.finishRound()
		return 0
	}
	rp.mu.Lock()
	target := live[rp.aeCursor%len(live)]
	rp.aeCursor++
	since := target.journalCursor
	rp.mu.Unlock()

	// Journal fleets pull an incremental suffix of the peer's event
	// journal addressed by a per-peer cursor — O(new verdicts) instead
	// of O(cache) per round. A peer without a journal (mixed fleet, or
	// its journal failed to open) answers "no journal" and the round
	// falls back to the digest exchange below.
	if svc.JournalEnabled() {
		if n, ok := rp.journalRound(svc, target.id, since); ok {
			return n
		}
	}

	n, _ := rp.digestRound(svc, target.id)
	return n
}

// digestRound runs one full digest/pull exchange against one peer. The
// second return reports whether the exchange completed (a failed round
// leaves readiness untouched; the next tick retries another peer).
// Both anti-entropy exchanges go through the peer's circuit breaker
// (callPeerGated): an open breaker skips the round cheaply, and AE
// failures count toward tripping it just like forwards.
func (rp *Replica) digestRound(svc *service.Server, targetID string) (int, bool) {
	reply, err := rp.callPeerGated(targetID, rpcRequest{
		Op: "digest", From: rp.id, Keys: svc.CacheKeys(),
	}, forwardTimeout)
	if err != nil || !reply.OK {
		// Failed round: stay unready if this would have been the first,
		// retry against the next peer on the next tick.
		return 0, false
	}
	loaded, skipped := svc.LoadColdCacheEntries(reply.Body)
	rp.finishRound()
	if loaded > 0 || skipped > 0 {
		rp.aePulled.Add(loaded)
		rp.f.mon.emit(KindAERound, rp.id, "", fmt.Sprintf("peer=%s pulled=%d skipped=%d", targetID, loaded, skipped))
	}
	return int(loaded), true
}

// journalRound runs one suffix pull against one peer. The second return
// reports whether the journal path handled the round (false → caller
// falls back to a digest exchange).
func (rp *Replica) journalRound(svc *service.Server, targetID string, since uint64) (int, bool) {
	reply, err := rp.callPeerGated(targetID, rpcRequest{
		Op: "journal", From: rp.id, Since: since,
	}, forwardTimeout)
	if err != nil || !reply.OK {
		return 0, false
	}
	if reply.Hole {
		// The cursor fell below the peer's compaction horizon — the
		// events it expected were retired by retention. An incremental
		// pull from here would silently skip history, so reconcile with
		// a full digest exchange and only then adopt the peer's horizon
		// as the new cursor: if the digest round fails, the stale cursor
		// stays and the next round re-detects the hole.
		rp.aeJournalHoles.Add(1)
		n, ok := rp.digestRound(svc, targetID)
		if ok {
			rp.mu.Lock()
			if p, exists := rp.peers[targetID]; exists && reply.Next > p.journalCursor {
				p.journalCursor = reply.Next
			}
			rp.mu.Unlock()
			rp.f.mon.emit(KindAERound, rp.id, "",
				fmt.Sprintf("peer=%s mode=journal-hole resynced=%d cursor=%d", targetID, n, reply.Next))
		}
		return n, ok
	}
	loaded, skipped := svc.ApplyJournalSuffix(reply.Body)
	rp.mu.Lock()
	if p, ok := rp.peers[targetID]; ok && reply.Next > p.journalCursor {
		p.journalCursor = reply.Next
	}
	rp.mu.Unlock()
	rp.finishRound()
	rp.aeJournalRounds.Add(1)
	if loaded > 0 || skipped > 0 {
		rp.aePulled.Add(loaded)
		rp.f.mon.emit(KindAERound, rp.id, "",
			fmt.Sprintf("peer=%s mode=journal pulled=%d skipped=%d next=%d", targetID, loaded, skipped, reply.Next))
	}
	return int(loaded), true
}

// handleJournalSuffix is the peer side of a journal-mode exchange:
// encode the verdict events above the requester's cursor, bounded by
// maxPullPerRound per round.
func (rp *Replica) handleJournalSuffix(req rpcRequest) rpcReply {
	svc := rp.Service()
	if svc == nil {
		return rpcReply{Err: "replica is down"}
	}
	if !svc.JournalEnabled() {
		return rpcReply{Err: "no journal"}
	}
	body, next, n, hole := svc.EncodeJournalSuffix(req.Since, maxPullPerRound)
	return rpcReply{OK: true, Body: body, Entries: n, Next: next, Hole: hole}
}

// finishRound marks a completed round, flipping first-round readiness.
func (rp *Replica) finishRound() {
	rp.aeRounds.Add(1)
	rp.aeDone.Store(true)
}

// handleDigest is the peer side of an anti-entropy exchange: encode the
// entries the requester lacks, up to maxPullPerRound per round.
func (rp *Replica) handleDigest(req rpcRequest) rpcReply {
	svc := rp.Service()
	if svc == nil {
		return rpcReply{Err: "replica is down"}
	}
	has := make(map[string]bool, len(req.Keys))
	for _, k := range req.Keys {
		has[k] = true
	}
	var missing []string
	for _, k := range svc.CacheKeys() {
		if !has[k] {
			missing = append(missing, k)
		}
	}
	if len(missing) > maxPullPerRound {
		missing = missing[:maxPullPerRound]
	}
	body := svc.EncodeCacheEntriesFor(missing, maxPullPerRound)
	return rpcReply{OK: true, Body: body, Entries: len(missing)}
}
