package system

import (
	"math/bits"
	"slices"
	"testing"
)

func TestIntsSizes(t *testing.T) {
	for _, n := range []int{0, 1, minPooled - 1, minPooled, 1000, 2187, 2188} {
		// What the pool hands out lies in n's class: below twice n.
		s := Ints(n)
		if len(s) != n || (n >= minPooled && cap(s) >= 2*n) {
			t.Fatalf("Ints(%d): len %d cap %d, want len %d and cap below %d", n, len(s), cap(s), n, 2*n)
		}
		PutInts(s)
	}
	// A class nothing has given back to misses, and a miss allocates
	// exactly what make would.
	const n = 1<<17 + 3
	if s := Ints(n); cap(s) != n {
		t.Fatalf("Ints(%d) on an empty class: cap %d, want exactly %d", n, cap(s), n)
	}
}

// TestIntsNeverHandsOutTooLittle gives back a slice just too short for
// the request in its own class: Ints must not return it.
func TestIntsNeverHandsOutTooLittle(t *testing.T) {
	const n = 3000
	if bits.Len(n-1) != bits.Len(n) {
		t.Fatal("n-1 and n must share a class")
	}
	for i := 0; i < 4; i++ {
		PutInts(make([]int, n-1))
	}
	if s := Ints(n); len(s) != n || cap(s) < n {
		t.Fatalf("Ints(%d): len %d cap %d", n, len(s), cap(s))
	}
}

func TestReleasedSystemPanics(t *testing.T) {
	for name, use := range map[string]func(*System){
		"Succ":          func(s *System) { s.Succ(0) },
		"HasTransition": func(s *System) { s.HasTransition(0, 1) },
		"Terminal":      func(s *System) { s.Terminal(0) },
	} {
		b := NewBuilder("ring", 300)
		for s := 0; s < 300; s++ {
			b.AddTransition(s, (s+1)%300)
		}
		sys := b.Build()
		sys.Release()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a released system did not panic", name)
				}
			}()
			use(sys)
		}()
	}
}

func TestHasTransitionShortAndLongRows(t *testing.T) {
	b := NewBuilder("fan", 40)
	for u := 0; u < 40; u += 2 {
		b.AddTransition(0, u) // a long row: 20 successors
	}
	b.AddTransition(1, 3)
	b.AddTransition(1, 7)
	b.AddTransition(1, 5)
	sys := b.Build()
	for s := 0; s < 2; s++ {
		for to := 0; to < 40; to++ {
			want := slices.Contains(sys.Succ(s), to)
			if got := sys.HasTransition(s, to); got != want {
				t.Errorf("HasTransition(%d, %d) = %v, want %v", s, to, got, want)
			}
		}
	}
}
