package cache

import (
	"fmt"
	"sync"
	"testing"
)

func TestKeyInjective(t *testing.T) {
	if Key("selfstab", "ab", "c") == Key("selfstab", "a", "bc") {
		t.Fatal("length prefixing failed: concatenation ambiguity")
	}
	if Key("selfstab", "p") == Key("refine", "p") {
		t.Fatal("kind does not separate keys")
	}
	if Key("k", "p") != Key("k", "p") {
		t.Fatal("key is not deterministic")
	}
	if len(Key("k")) != 64 {
		t.Fatalf("key is not hex SHA-256: %q", Key("k"))
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := New(2)
	c.Put("a", 1)
	c.Put("b", 2)
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing")
	}
	c.Put("c", 3) // evicts b (least recently used; a was just touched)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if v, ok := c.Get("a"); !ok || v.(int) != 1 {
		t.Fatal("a lost")
	}
	if v, ok := c.Get("c"); !ok || v.(int) != 3 {
		t.Fatal("c lost")
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	hits, misses := c.Stats()
	if hits != 3 || misses != 1 {
		t.Fatalf("stats = %d hits / %d misses, want 3/1", hits, misses)
	}
}

func TestCacheRePutRefreshes(t *testing.T) {
	c := New(2)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("a", 10) // refresh: a becomes most recent
	c.Put("c", 3)  // evicts b
	if v, ok := c.Get("a"); !ok || v.(int) != 10 {
		t.Fatal("refreshed value lost")
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
}

func TestCacheDisabled(t *testing.T) {
	c := New(0)
	c.Put("a", 1)
	if _, ok := c.Get("a"); ok {
		t.Fatal("disabled cache stored a value")
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := New(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", i%100)
				c.Put(k, i)
				c.Get(k)
			}
		}(w)
	}
	wg.Wait()
	if c.Len() > 64 {
		t.Fatalf("capacity exceeded: %d", c.Len())
	}
}

// TestCacheFree: Free counts the slots left before the cache is full,
// through Put and PutCold alike, stays 0 once eviction starts, and is 0
// for a disabled cache.
func TestCacheFree(t *testing.T) {
	c := New(3)
	if got := c.Free(); got != 3 {
		t.Fatalf("empty cache Free = %d, want 3", got)
	}
	c.Put("a", 1)
	c.PutCold("b", 2)
	if got := c.Free(); got != 1 {
		t.Fatalf("Free after two entries = %d, want 1", got)
	}
	c.Put("c", 3)
	c.Put("d", 4) // evicts
	if got := c.Free(); got != 0 {
		t.Fatalf("full cache Free = %d, want 0", got)
	}
	for _, capacity := range []int{0, -1} {
		if got := New(capacity).Free(); got != 0 {
			t.Fatalf("New(%d).Free() = %d, want 0", capacity, got)
		}
	}
}
