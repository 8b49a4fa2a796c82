package system

import (
	"math/bits"
	"sync"
)

// Every verdict quantifies over all of Σ, so every check fills a few
// Σ-sized arrays: a compiled system's rows, the SCC sweep's per-state
// buffers, the exact lint tier's bitsets. They are dead once the check's
// answer is built. A caller that knows when that is hands them back
// (PutInts, PutBools, PutWords), and the next check takes them (Ints,
// Bools, Words) instead of allocating.
//
// The classes are an eighth of an octave wide: their bounds are
// 2^e·(8+j)/8 for j = 0..7 and every 2^e ≥ minPooled. A slice given back
// joins the class of the largest bound its capacity reaches, so every
// slice in a class is at least as long as the class's bound. A request
// for n looks in the class of the smallest bound ≥ n and takes whatever
// it finds there; a miss allocates that bound. So sizes that differ by
// a few entries (a Σ-sized array and its Σ+1-sized offsets) share a
// class, and a caller that never gives anything back pays at most an
// eighth more than make would.
//
// Slices shorter than minPooled are neither handed out nor kept. The
// boxes that carry slices through a sync.Pool are recycled too, so once
// warm a get and a put allocate nothing.
type slicePool[T any] struct {
	classes [bits.UintSize * 8]sync.Pool
	boxes   sync.Pool // empty *[]T
}

const minPooled = 256

var (
	intPool  slicePool[int]
	boolPool slicePool[bool]
	wordPool slicePool[uint64]
)

// floorClass is the class of the largest bound ≤ c, for c ≥ 8.
func floorClass(c int) int {
	e := bits.Len(uint(c)) - 1
	return e<<3 | c>>(e-3)&7
}

// classBound is the smallest capacity class k holds.
func classBound(k int) int { return (8 | k&7) << (k>>3 - 3) }

func (p *slicePool[T]) get(n int) []T {
	if n < minPooled {
		return make([]T, n)
	}
	k := floorClass(n-1) + 1 // the smallest bound ≥ n
	if b, _ := p.classes[k].Get().(*[]T); b != nil {
		s := *b
		*b = nil
		p.boxes.Put(b)
		return s[:n]
	}
	return make([]T, n, classBound(k))
}

func (p *slicePool[T]) put(s []T) {
	c := cap(s)
	if c < minPooled {
		return
	}
	b, _ := p.boxes.Get().(*[]T)
	if b == nil {
		b = new([]T)
	}
	*b = s[:0]
	p.classes[floorClass(c)].Put(b)
}

// Ints returns an int slice of length n. Its contents are arbitrary
// when it comes from the pool: the caller writes every element it reads.
func Ints(n int) []int { return intPool.get(n) }

// PutInts gives s back for a later Ints to reuse. The caller must not
// touch s, or any slice sharing its array, afterwards.
func PutInts(s []int) { intPool.put(s) }

// Bools is Ints for bool slices.
func Bools(n int) []bool { return boolPool.get(n) }

// PutBools is PutInts for bool slices.
func PutBools(s []bool) { boolPool.put(s) }

// Words is Ints for uint64 slices, the words of a bitset.
func Words(n int) []uint64 { return wordPool.get(n) }

// PutWords is PutInts for uint64 slices.
func PutWords(s []uint64) { wordPool.put(s) }
