package system

import (
	"errors"
	"fmt"

	"repro/internal/bitset"
)

// Abstraction is the Section 2.3 device for relating an implementation C to
// a specification A over a different state space: a total mapping from Σ_C
// onto Σ_A. Totality is guaranteed by construction (every concrete index
// maps somewhere); ontoness is checked separately because the paper's own
// token-ring mappings are deliberately not onto (no BTR4 state maps to an
// abstract state holding both ↑t.j and ↓t.j), and the checkers only need
// totality.
type Abstraction struct {
	nC, nA int
	m      []int // nil: the identity
}

// ErrNotTotal reports a mapping function that produced an out-of-range
// abstract state.
var ErrNotTotal = errors.New("abstraction maps a concrete state outside the abstract space")

// NewAbstraction tabulates f over [0, nC). It returns ErrNotTotal (wrapped
// with the offending state) if f(s) falls outside [0, nA).
func NewAbstraction(nC, nA int, f func(s int) int) (*Abstraction, error) {
	if nC <= 0 || nA <= 0 {
		return nil, fmt.Errorf("abstraction: non-positive space sizes %d, %d", nC, nA)
	}
	ab := &Abstraction{nC: nC, nA: nA, m: make([]int, nC)}
	for s := 0; s < nC; s++ {
		a := f(s)
		if a < 0 || a >= nA {
			return nil, fmt.Errorf("abstraction: f(%d) = %d: %w", s, a, ErrNotTotal)
		}
		ab.m[s] = a
	}
	return ab, nil
}

// MapSpaces builds an abstraction between structured spaces, where f
// translates a decoded concrete assignment into a decoded abstract
// assignment.
func MapSpaces(cSp, aSp *Space, f func(c Vals, a Vals)) (*Abstraction, error) {
	cv := make(Vals, cSp.NumVars())
	av := make(Vals, aSp.NumVars())
	return NewAbstraction(cSp.Size(), aSp.Size(), func(s int) int {
		cv = cSp.Decode(s, cv)
		f(cv, av)
		return aSp.Encode(av)
	})
}

// Identity returns the identity abstraction on a shared state space, used
// when C and A are over the same Σ (the Section 2 default). It stores no
// mapping.
func Identity(n int) *Abstraction {
	return &Abstraction{nC: n, nA: n}
}

// Of returns α(s).
func (ab *Abstraction) Of(s int) int {
	if ab.m == nil {
		return s
	}
	return ab.m[s]
}

// NumConcrete returns |Σ_C|.
func (ab *Abstraction) NumConcrete() int { return ab.nC }

// NumAbstract returns |Σ_A|.
func (ab *Abstraction) NumAbstract() int { return ab.nA }

// Onto reports whether every abstract state is the image of some concrete
// state (the letter of Section 2.3's definition).
func (ab *Abstraction) Onto() bool {
	if ab.m == nil {
		return true
	}
	seen := bitset.New(ab.nA)
	for _, a := range ab.m {
		seen.Add(a)
	}
	return seen.Count() == ab.nA
}

// Image returns the set of abstract states that are images of members of
// the given concrete set.
func (ab *Abstraction) Image(concrete *bitset.Set) *bitset.Set {
	out := bitset.New(ab.nA)
	concrete.ForEach(func(s int) { out.Add(ab.Of(s)) })
	return out
}

// Preimage returns the set of concrete states mapping into the given
// abstract set.
func (ab *Abstraction) Preimage(abstract *bitset.Set) *bitset.Set {
	out := bitset.New(ab.nC)
	for s := range ab.nC {
		if abstract.Has(ab.Of(s)) {
			out.Add(s)
		}
	}
	return out
}

// MapSeq applies α pointwise to a concrete state sequence.
func (ab *Abstraction) MapSeq(seq []int) []int {
	out := make([]int, len(seq))
	for i, s := range seq {
		out[i] = ab.Of(s)
	}
	return out
}
