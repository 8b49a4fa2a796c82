package system

import (
	"errors"
	"testing"

	"repro/internal/bitset"
)

func TestIdentityAbstraction(t *testing.T) {
	ab := Identity(5)
	for s := 0; s < 5; s++ {
		if ab.Of(s) != s {
			t.Fatalf("Of(%d) = %d", s, ab.Of(s))
		}
	}
	if !ab.Onto() {
		t.Fatal("identity should be onto")
	}
	if ab.NumConcrete() != 5 || ab.NumAbstract() != 5 {
		t.Fatal("sizes wrong")
	}
	set := bitset.New(5)
	set.Add(1)
	set.Add(4)
	if img, pre := ab.Image(set), ab.Preimage(set); !img.Equal(set) || !pre.Equal(set) {
		t.Fatalf("Image %v, Preimage %v of %v", img.Members(), pre.Members(), set.Members())
	}
	if seq := ab.MapSeq([]int{3, 0, 3}); len(seq) != 3 || seq[0] != 3 || seq[1] != 0 || seq[2] != 3 {
		t.Fatalf("MapSeq = %v", seq)
	}
}

func TestNewAbstractionTotalityError(t *testing.T) {
	_, err := NewAbstraction(3, 2, func(s int) int { return s }) // f(2)=2 out of range
	if !errors.Is(err, ErrNotTotal) {
		t.Fatalf("err = %v, want ErrNotTotal", err)
	}
}

func TestOnto(t *testing.T) {
	onto, err := NewAbstraction(4, 2, func(s int) int { return s % 2 })
	if err != nil {
		t.Fatal(err)
	}
	if !onto.Onto() {
		t.Fatal("s%2 over 4→2 should be onto")
	}
	notOnto, err := NewAbstraction(4, 3, func(s int) int { return s % 2 })
	if err != nil {
		t.Fatal(err)
	}
	if notOnto.Onto() {
		t.Fatal("s%2 over 4→3 should not be onto")
	}
}

func TestImagePreimage(t *testing.T) {
	ab, err := NewAbstraction(6, 3, func(s int) int { return s / 2 })
	if err != nil {
		t.Fatal(err)
	}
	img := ab.Image(bitset.FromSlice(6, []int{0, 1, 4}))
	if !img.Equal(bitset.FromSlice(3, []int{0, 2})) {
		t.Fatalf("Image = %v", img)
	}
	pre := ab.Preimage(bitset.FromSlice(3, []int{1}))
	if !pre.Equal(bitset.FromSlice(6, []int{2, 3})) {
		t.Fatalf("Preimage = %v", pre)
	}
}

func TestPreimageImageGalois(t *testing.T) {
	ab, err := NewAbstraction(10, 4, func(s int) int { return s % 4 })
	if err != nil {
		t.Fatal(err)
	}
	// image(preimage(X)) == X when ab is onto.
	x := bitset.FromSlice(4, []int{1, 3})
	got := ab.Image(ab.Preimage(x))
	if !got.Equal(x) {
		t.Fatalf("Image(Preimage(%v)) = %v", x, got)
	}
}

func TestMapSeq(t *testing.T) {
	ab, err := NewAbstraction(4, 2, func(s int) int { return s / 2 })
	if err != nil {
		t.Fatal(err)
	}
	got := ab.MapSeq([]int{0, 1, 2, 3})
	want := []int{0, 0, 1, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MapSeq = %v", got)
		}
	}
}

func TestMapSpaces(t *testing.T) {
	// Concrete: two bits; abstract: their parity.
	cSp := NewSpace(Bool("a"), Bool("b"))
	aSp := NewSpace(Bool("parity"))
	ab, err := MapSpaces(cSp, aSp, func(c Vals, a Vals) {
		a[0] = (c[0] + c[1]) % 2
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ab.Onto() {
		t.Fatal("parity should be onto")
	}
	s := cSp.Encode(Vals{1, 0})
	if got := ab.Of(s); got != aSp.Encode(Vals{1}) {
		t.Fatalf("Of = %d", got)
	}
}
