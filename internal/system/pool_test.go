package system

import (
	"slices"
	"testing"
)

func TestIntsSizes(t *testing.T) {
	for _, n := range []int{0, 1, minPooled - 1, minPooled, 1000, 2187, 2188, 8505, 9477} {
		// What the pool hands out is at most an eighth longer than n.
		s := Ints(n)
		if len(s) != n || (n >= minPooled && 8*cap(s) > 9*n) {
			t.Fatalf("Ints(%d): len %d cap %d, want len %d and cap at most %d", n, len(s), cap(s), n, n+n/8)
		}
		PutInts(s)
	}
	// Below the floor a miss allocates exactly what make would.
	if s := Ints(minPooled - 1); cap(s) != minPooled-1 {
		t.Fatalf("Ints(%d): cap %d, want exactly %d", minPooled-1, cap(s), minPooled-1)
	}
}

// TestPoolClasses checks the class arithmetic: bounds rise by an
// eighth of an octave, every capacity joins the class of the largest
// bound it reaches, and every request looks in the class of the
// smallest bound it fits.
func TestPoolClasses(t *testing.T) {
	for k := floorClass(minPooled); k < floorClass(1<<40); k++ {
		if b, next := classBound(k), classBound(k+1); next <= b || 8*next > 9*b {
			t.Fatalf("class %d bound %d, class %d bound %d: want a rise of at most an eighth", k, b, k+1, next)
		}
		if got := floorClass(classBound(k)); got != k {
			t.Fatalf("floorClass(classBound(%d)) = %d", k, got)
		}
	}
	for c := minPooled; c < 1<<16; c++ {
		k := floorClass(c)
		if classBound(k) > c || classBound(k+1) <= c {
			t.Fatalf("capacity %d in class %d with bounds [%d, %d)", c, k, classBound(k), classBound(k+1))
		}
		if up := floorClass(c-1) + 1; classBound(up) < c || classBound(up-1) >= c {
			t.Fatalf("request %d looks in class %d of bound %d", c, up, classBound(up))
		}
	}
}

// TestIntsNeverHandsOutTooLittle gives back slices just too short for
// a request: Ints must not return them.
func TestIntsNeverHandsOutTooLittle(t *testing.T) {
	const n = 3000
	for i := 0; i < 4; i++ {
		PutInts(make([]int, n-1))
	}
	if s := Ints(n); len(s) != n || cap(s) < n {
		t.Fatalf("Ints(%d): len %d cap %d", n, len(s), cap(s))
	}
}

// raceEnabled is set when the tests run under the race detector.
var raceEnabled bool

// TestPoolWarmAllocs alternates the sizes cold checks ask for: D3 and
// A3 at N = 6 have 2187 states and 2188 row offsets, 8505 transitions
// in a compiled D3, and K3's compiled rows hold 9477. Once each size has
// been given back once, drawing and returning them allocates nothing.
func TestPoolWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	sizes := []int{2187, 2188, 8505, 9477}
	cycle := func() {
		for _, n := range sizes {
			s := Ints(n)
			s[n-1] = n
			PutInts(s)
		}
		b := Bools(2187)
		PutBools(b)
		w := Words(385)
		PutWords(w)
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("a warm Ints/PutInts cycle makes %.0f allocations, want 0", allocs)
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
