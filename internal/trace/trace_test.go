package trace

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/system"
)

func TestIsSubsequence(t *testing.T) {
	cases := []struct {
		c, a []int
		want bool
	}{
		{[]int{1, 3, 6}, []int{1, 2, 3, 4, 5, 6}, true},
		{[]int{1, 3, 5, 6}, []int{1, 2, 5, 6}, false}, // the paper's non-example
		{[]int{}, []int{1, 2}, true},
		{[]int{1, 2}, []int{}, false},
		{[]int{1, 1}, []int{1}, false}, // multiplicity respected
		{[]int{1, 1}, []int{1, 2, 1}, true},
		{[]int{2, 1}, []int{1, 2}, false}, // order respected
		{[]int{1, 2}, []int{1, 2}, true},
	}
	for _, tc := range cases {
		if got := IsSubsequence(tc.c, tc.a); got != tc.want {
			t.Errorf("IsSubsequence(%v, %v) = %v, want %v", tc.c, tc.a, got, tc.want)
		}
	}
}

func TestConvergenceIsomorphicPaperExamples(t *testing.T) {
	// From Section 2: c = s1 s3 s6 is a convergence isomorphism of
	// a = s1 s2 s3 s4 s5 s6.
	if !ConvergenceIsomorphic([]int{1, 3, 6}, []int{1, 2, 3, 4, 5, 6}) {
		t.Fatal("paper's positive example rejected")
	}
	// c = s1 s3 s5 s6 is NOT one of a = s1 s2 s5 s6 (cannot insert s3).
	if ConvergenceIsomorphic([]int{1, 3, 5, 6}, []int{1, 2, 5, 6}) {
		t.Fatal("paper's negative example accepted")
	}
}

func TestConvergenceIsomorphicEndpoints(t *testing.T) {
	// Same first and last state required.
	if ConvergenceIsomorphic([]int{2, 3}, []int{1, 2, 3}) {
		t.Fatal("initial state may not be dropped")
	}
	if ConvergenceIsomorphic([]int{1, 2}, []int{1, 2, 3}) {
		t.Fatal("final state may not be dropped")
	}
	if !ConvergenceIsomorphic([]int{1}, []int{1}) {
		t.Fatal("singleton should match itself")
	}
	if !ConvergenceIsomorphic(nil, nil) {
		t.Fatal("empty vs empty")
	}
	if ConvergenceIsomorphic(nil, []int{1}) {
		t.Fatal("empty vs non-empty")
	}
}

func TestOmissions(t *testing.T) {
	n, ok := Omissions([]int{1, 3, 6}, []int{1, 2, 3, 4, 5, 6})
	if !ok || n != 3 {
		t.Fatalf("Omissions = %d, %v", n, ok)
	}
	if _, ok := Omissions([]int{9}, []int{1}); ok {
		t.Fatal("unrelated sequences reported isomorphic")
	}
}

// Property: any subsequence of a keeping first and last elements is a
// convergence isomorphism of a.
func TestQuickConvergenceIsomorphism(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(20)
		a := make([]int, n)
		for i := range a {
			a[i] = r.Intn(5)
		}
		c := []int{a[0]}
		for i := 1; i < n-1; i++ {
			if r.Intn(2) == 0 {
				c = append(c, a[i])
			}
		}
		c = append(c, a[n-1])
		return ConvergenceIsomorphic(c, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: convergence isomorphism is reflexive and transitive on random
// sequences (c ⊑ b and b ⊑ a implies c ⊑ a).
func TestQuickIsomorphismTransitive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(15)
		a := make([]int, n)
		for i := range a {
			a[i] = r.Intn(4)
		}
		if !ConvergenceIsomorphic(a, a) {
			return false
		}
		drop := func(s []int) []int {
			out := []int{s[0]}
			for i := 1; i < len(s)-1; i++ {
				if r.Intn(3) > 0 {
					out = append(out, s[i])
				}
			}
			return append(out, s[len(s)-1])
		}
		b := drop(a)
		c := drop(b)
		return ConvergenceIsomorphic(b, a) && ConvergenceIsomorphic(c, b) && ConvergenceIsomorphic(c, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDestutter(t *testing.T) {
	cases := []struct {
		in, want []int
	}{
		{nil, nil},
		{[]int{1}, []int{1}},
		{[]int{1, 1, 1}, []int{1}},
		{[]int{1, 1, 2, 2, 1}, []int{1, 2, 1}},
		{[]int{1, 2, 3}, []int{1, 2, 3}},
	}
	for _, tc := range cases {
		got := Destutter(tc.in)
		if len(got) != len(tc.want) {
			t.Fatalf("Destutter(%v) = %v", tc.in, got)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("Destutter(%v) = %v", tc.in, got)
			}
		}
	}
}

func TestQuickDestutterIdempotent(t *testing.T) {
	f := func(xs []uint8) bool {
		seq := make([]int, len(xs))
		for i, x := range xs {
			seq[i] = int(x % 3)
		}
		once := Destutter(seq)
		twice := Destutter(once)
		if len(once) != len(twice) {
			return false
		}
		for i := range once {
			if once[i] != twice[i] {
				return false
			}
		}
		// No two adjacent equal states remain.
		for i := 1; i < len(once); i++ {
			if once[i] == once[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func mkChain(t *testing.T) *system.System {
	t.Helper()
	b := system.NewBuilder("chain", 4)
	b.AddTransition(0, 1)
	b.AddTransition(1, 2)
	b.AddTransition(2, 3)
	b.AddInit(0)
	return b.Build()
}

func TestIsPathOf(t *testing.T) {
	sys := mkChain(t)
	if !IsPathOf(sys, []int{0, 1, 2}) {
		t.Fatal("valid path rejected")
	}
	if IsPathOf(sys, []int{0, 2}) {
		t.Fatal("invalid path accepted")
	}
	if !IsPathOf(sys, []int{2}) || !IsPathOf(sys, nil) {
		t.Fatal("trivial paths rejected")
	}
}

func TestIsComputationOf(t *testing.T) {
	sys := mkChain(t)
	if !IsComputationOf(sys, []int{0, 1, 2, 3}) {
		t.Fatal("maximal path rejected")
	}
	if IsComputationOf(sys, []int{0, 1, 2}) {
		t.Fatal("non-maximal path accepted as computation")
	}
	if IsComputationOf(sys, nil) {
		t.Fatal("empty accepted")
	}
	if !IsComputationFromInit(sys, []int{0, 1, 2, 3}) {
		t.Fatal("from-init computation rejected")
	}
	if IsComputationFromInit(sys, []int{1, 2, 3}) {
		t.Fatal("non-init start accepted")
	}
}

func TestHasSuffixSatisfying(t *testing.T) {
	seq := []int{9, 9, 1, 2, 3}
	idx, ok := HasSuffixSatisfying(seq, func(s []int) bool { return s[0] == 1 })
	if !ok || idx != 2 {
		t.Fatalf("idx = %d, ok = %v", idx, ok)
	}
	if _, ok := HasSuffixSatisfying(seq, func(s []int) bool { return false }); ok {
		t.Fatal("impossible predicate satisfied")
	}
}

func TestFormat(t *testing.T) {
	sys := mkChain(t)
	got := Format(sys, []int{0, 1})
	if got != "s0 → s1" {
		t.Fatalf("Format = %q", got)
	}
}
