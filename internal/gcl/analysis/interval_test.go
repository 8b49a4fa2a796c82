package analysis

import (
	"testing"
)

func TestIntervalBasics(t *testing.T) {
	if !ivEmpty.IsEmpty() {
		t.Fatal("ivEmpty not empty")
	}
	if Single(3) != (Interval{3, 3}) || !Single(3).IsSingle() {
		t.Fatal("Single broken")
	}
	if got := (Interval{0, 4}).Intersect(Interval{2, 9}); got != (Interval{2, 4}) {
		t.Fatalf("Intersect: %v", got)
	}
	if got := (Interval{0, 1}).Join(Interval{5, 6}); got != (Interval{0, 6}) {
		t.Fatalf("Join: %v", got)
	}
	if got := ivEmpty.Join(Single(2)); got != Single(2) {
		t.Fatalf("Join with empty: %v", got)
	}
	if !(Interval{0, 2}).Within(Interval{0, 3}) || (Interval{0, 4}).Within(Interval{0, 3}) {
		t.Fatal("Within broken")
	}
	if !(Interval{0, 1}).Disjoint(Interval{2, 3}) || (Interval{0, 2}).Disjoint(Interval{2, 3}) {
		t.Fatal("Disjoint broken")
	}
}

// TestIntervalOpsTable pins exact results for the arithmetic
// operators over bounded domains, including division and modulo by
// intervals containing zero.
func TestIntervalOpsTable(t *testing.T) {
	cases := []struct {
		name string
		op   func(a, b Interval) Interval
		a, b Interval
		want Interval
	}{
		{"add", Interval.Add, Interval{0, 3}, Interval{-2, 2}, Interval{-2, 5}},
		{"add-empty", Interval.Add, ivEmpty, Interval{0, 1}, ivEmpty},
		{"sub", Interval.Sub, Interval{0, 3}, Interval{1, 2}, Interval{-2, 2}},
		{"mul-pos", Interval.Mul, Interval{2, 3}, Interval{4, 5}, Interval{8, 15}},
		{"mul-mixed", Interval.Mul, Interval{-2, 3}, Interval{-4, 5}, Interval{-12, 15}},
		{"mul-zero", Interval.Mul, Interval{0, 0}, Interval{-9, 9}, Interval{0, 0}},
		{"div-pos", Interval.Div, Interval{4, 9}, Interval{2, 3}, Interval{1, 4}},
		{"div-by-zero-only", Interval.Div, Interval{1, 5}, Interval{0, 0}, ivEmpty},
		{"div-zero-straddle", Interval.Div, Interval{6, 6}, Interval{-2, 3}, Interval{-6, 6}},
		{"div-neg", Interval.Div, Interval{-7, -3}, Interval{2, 2}, Interval{-4, -2}},
		{"mod-pos", Interval.Mod, Interval{-5, 5}, Interval{3, 3}, Interval{0, 2}},
		{"mod-zero-straddle", Interval.Mod, Interval{0, 9}, Interval{-2, 4}, Interval{-1, 3}},
		{"mod-by-zero-only", Interval.Mod, Interval{1, 5}, Interval{0, 0}, ivEmpty},
		{"mod-identity", Interval.Mod, Interval{0, 2}, Interval{5, 5}, Interval{0, 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.op(tc.a, tc.b); got != tc.want {
				t.Fatalf("%s(%v, %v) = %v, want %v", tc.name, tc.a, tc.b, got, tc.want)
			}
		})
	}
}

func TestIntervalComparisons(t *testing.T) {
	cases := []struct {
		name string
		op   func(a, b Interval) Interval
		a, b Interval
		want Interval
	}{
		{"lt-true", Interval.Lt, Interval{0, 2}, Interval{3, 5}, ivTrue},
		{"lt-false", Interval.Lt, Interval{5, 9}, Interval{0, 5}, ivFalse},
		{"lt-unknown", Interval.Lt, Interval{0, 5}, Interval{3, 4}, ivBool},
		{"le-true", Interval.Le, Interval{0, 3}, Interval{3, 5}, ivTrue},
		{"eq-true", Interval.Eq, Single(4), Single(4), ivTrue},
		{"eq-false", Interval.Eq, Interval{0, 2}, Interval{3, 7}, ivFalse},
		{"eq-unknown", Interval.Eq, Interval{0, 2}, Interval{2, 7}, ivBool},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.op(tc.a, tc.b); got != tc.want {
				t.Fatalf("%s(%v, %v) = %v, want %v", tc.name, tc.a, tc.b, got, tc.want)
			}
		})
	}
}

func TestBoolConnectives(t *testing.T) {
	if boolNot(ivTrue) != ivFalse || boolNot(ivFalse) != ivTrue || boolNot(ivBool) != ivBool {
		t.Fatal("boolNot broken")
	}
	if boolAnd(ivTrue, ivBool) != ivBool || boolAnd(ivFalse, ivBool) != ivFalse || boolAnd(ivTrue, ivTrue) != ivTrue {
		t.Fatal("boolAnd broken")
	}
	if boolOr(ivTrue, ivBool) != ivTrue || boolOr(ivFalse, ivFalse) != ivFalse || boolOr(ivBool, ivFalse) != ivBool {
		t.Fatal("boolOr broken")
	}
}

// TestIntervalSoundness is the property the whole analyzer leans on:
// for every operator, the abstract result contains every concrete
// result of operand values drawn from the operand intervals. It
// brute-forces all pairs over a grid of small intervals.
func TestIntervalSoundness(t *testing.T) {
	grid := []Interval{
		{0, 0}, {1, 1}, {-1, -1}, {0, 3}, {-3, 3}, {-5, -2}, {2, 7}, {-1, 1}, {0, 1},
	}
	type op struct {
		name     string
		abstract func(a, b Interval) Interval
		concrete func(x, y int) (int, bool) // ok = false means "no value" (errors)
	}
	ops := []op{
		{"add", Interval.Add, func(x, y int) (int, bool) { return x + y, true }},
		{"sub", Interval.Sub, func(x, y int) (int, bool) { return x - y, true }},
		{"mul", Interval.Mul, func(x, y int) (int, bool) { return x * y, true }},
		{"div", Interval.Div, func(x, y int) (int, bool) {
			if y == 0 {
				return 0, false
			}
			return floorDiv(x, y), true
		}},
		{"mod", Interval.Mod, func(x, y int) (int, bool) {
			if y == 0 {
				return 0, false
			}
			return floorMod(x, y), true
		}},
		{"lt", Interval.Lt, func(x, y int) (int, bool) { return b2i(x < y), true }},
		{"le", Interval.Le, func(x, y int) (int, bool) { return b2i(x <= y), true }},
		{"eq", Interval.Eq, func(x, y int) (int, bool) { return b2i(x == y), true }},
	}
	for _, o := range ops {
		for _, a := range grid {
			for _, b := range grid {
				abs := o.abstract(a, b)
				for x := a.Lo; x <= a.Hi; x++ {
					for y := b.Lo; y <= b.Hi; y++ {
						v, ok := o.concrete(x, y)
						if !ok {
							continue
						}
						if !abs.Contains(v) {
							t.Fatalf("%s: %v op %v = %v, but concrete %d op %d = %d escapes",
								o.name, a, b, abs, x, y, v)
						}
					}
				}
			}
		}
	}
}

func TestSaturationNoOverflow(t *testing.T) {
	huge := Interval{satLimit, satLimit}
	got := huge.Mul(huge) // would overflow without saturation
	if got.Hi != satLimit {
		t.Fatalf("Mul saturation: %v", got)
	}
	got = huge.Add(huge)
	if got.Hi != satLimit {
		t.Fatalf("Add saturation: %v", got)
	}
	neg := Interval{-satLimit, -satLimit}
	if got := neg.Mul(huge); got.Lo != -satLimit {
		t.Fatalf("Mul mixed saturation: %v", got)
	}
	if got := neg.Sub(huge); got.Lo != -satLimit {
		t.Fatalf("Sub saturation: %v", got)
	}
}
