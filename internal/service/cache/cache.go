// Package cache is checkd's content-addressed verdict cache: a
// fixed-capacity LRU keyed on the SHA-256 of the canonicalized inputs of
// a check. The decision procedures are pure functions of their inputs, so
// a key collision-free address is a correctness-preserving memoization —
// two requests with the same canonical program text and check kind get
// the same verdict without re-enumerating the state space.
package cache

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sync"
)

// Key builds a content address from a check kind and the canonical forms
// of its inputs. Each part is length-prefixed before hashing so that the
// concatenation is injective ("ab"+"c" and "a"+"bc" address differently).
func Key(kind string, parts ...string) string {
	h := sha256.New()
	var lenBuf [8]byte
	write := func(s string) {
		binary.BigEndian.PutUint64(lenBuf[:], uint64(len(s)))
		h.Write(lenBuf[:])
		h.Write([]byte(s))
	}
	write(kind)
	for _, p := range parts {
		write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Cache is a goroutine-safe LRU with hit/miss counters. Values are
// treated as immutable: callers must not mutate what they Put or Get.
type Cache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	items    map[string]*list.Element
	hits     uint64
	misses   uint64
}

type entry struct {
	key string
	val any
}

// New builds a cache bounded to capacity entries. capacity ≤ 0 disables
// caching (every Get misses, Put is a no-op) — useful for benchmarking
// the uncached path without special-casing callers.
func New(capacity int) *Cache {
	return &Cache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
	}
}

// Get returns the cached value for key and marks it most recently used.
func (c *Cache) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*entry).val, true
}

// Put stores val under key, evicting the least recently used entry when
// the cache is full. Re-putting an existing key refreshes its value and
// recency.
func (c *Cache) Put(key string, val any) {
	if c.capacity <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*entry).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&entry{key: key, val: val})
	if c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*entry).key)
	}
}

// Entry is one cache entry as exposed by Entries for persistence.
type Entry struct {
	Key string
	Val any
}

// Entries snapshots the cache from least to most recently used, so a
// reload that Puts them in order reconstructs the recency order.
func (c *Cache) Entries() []Entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Entry, 0, c.ll.Len())
	for el := c.ll.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*entry)
		out = append(out, Entry{Key: e.key, Val: e.val})
	}
	return out
}

// Len returns the current number of entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Free returns how many entries fit before the cache is full: capacity
// minus Len, and 0 when caching is disabled. Nothing removes entries
// except eviction on Put, so once Free reaches 0 it stays there.
func (c *Cache) Free() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return max(c.capacity-c.ll.Len(), 0)
}

// Stats returns the cumulative hit and miss counts.
func (c *Cache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// PutCold inserts val under key at the cold (least recently used) end
// of the LRU, and only into spare capacity: if the key is already
// present or the cache is full, PutCold is a no-op returning false.
// Anti-entropy sync uses it so replicated entries fill idle capacity
// without evicting — or even refreshing — entries earned by this
// cache's own traffic; a later Get promotes a cold entry normally.
func (c *Cache) PutCold(key string, val any) bool {
	if c.capacity <= 0 {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.items[key]; ok {
		return false
	}
	if c.ll.Len() >= c.capacity {
		return false
	}
	c.items[key] = c.ll.PushBack(&entry{key: key, val: val})
	return true
}
