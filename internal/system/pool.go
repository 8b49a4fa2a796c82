package system

import (
	"math/bits"
	"sync"
)

// Every verdict quantifies over all of Σ, so every check fills a few
// Σ-sized int arrays: a compiled system's rows, the SCC sweep's
// per-state buffers. They are dead once the check's answer is built. A
// caller that knows when that is hands them back with PutInts, and the
// next check takes them with Ints instead of allocating.
//
// Class k holds slices whose capacity c has bits.Len(c) == k, that is
// 2^(k−1) ≤ c < 2^k. Ints(n) looks only in n's own class and takes what
// it finds when the capacity suffices, so it never hands out more than
// twice what was asked for; a miss allocates exactly make([]int, n), so
// a caller that never gives anything back pays only the lookup.
// Slices shorter than minPooled are neither handed out nor kept.
var intPools [bits.UintSize + 1]sync.Pool

const minPooled = 256

// Ints returns an int slice of length n. Its contents are arbitrary
// when it comes from the pool: the caller writes every element it reads.
func Ints(n int) []int {
	if n >= minPooled {
		k := bits.Len(uint(n))
		if p, _ := intPools[k].Get().(*[]int); p != nil {
			if s := *p; cap(s) >= n {
				return s[:n]
			}
			intPools[k].Put(p)
		}
	}
	return make([]int, n)
}

// PutInts gives s back for a later Ints to reuse. The caller must not
// touch s, or any slice sharing its array, afterwards.
func PutInts(s []int) {
	if c := cap(s); c >= minPooled {
		p := new([]int) // boxed only here, so a short slice costs nothing
		*p = s[:0]
		intPools[bits.Len(uint(c))].Put(p)
	}
}
