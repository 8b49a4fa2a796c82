package sim

import (
	"errors"
	"fmt"
)

// Dijkstra3 is Dijkstra's 3-state token ring in local-rule form (the final
// Section 5.2 listing). P = N+1 processes; registers are mod-3 counters.
type Dijkstra3 struct {
	// P is the number of processes (≥ 3).
	P int
}

// NewDijkstra3 builds the protocol for p processes.
func NewDijkstra3(p int) *Dijkstra3 {
	if p < 3 {
		panic(fmt.Sprintf("sim: Dijkstra3 needs ≥ 3 processes, got %d", p))
	}
	return &Dijkstra3{P: p}
}

// Name implements Protocol.
func (d *Dijkstra3) Name() string { return fmt.Sprintf("dijkstra3(P=%d)", d.P) }

// Procs implements Protocol.
func (d *Dijkstra3) Procs() int { return d.P }

// Domain implements Protocol.
func (d *Dijkstra3) Domain(int) int { return 3 }

// Moves implements Protocol.
func (d *Dijkstra3) Moves(i, left, own, right int) []Move {
	switch i {
	case 0:
		// c.1 = c.0⊕1 → c.0 := c.1⊕1
		if right == plus1mod3(own) {
			return []Move{{Rule: "bottom", NewVal: plus1mod3(right)}}
		}
	case d.P - 1:
		// c.(N−1) = c.0 ∧ c.(N−1)⊕1 ≠ c.N → c.N := c.(N−1)⊕1
		if left == right && plus1mod3(left) != own {
			return []Move{{Rule: "top", NewVal: plus1mod3(left)}}
		}
	default:
		var ms []Move
		if left == plus1mod3(own) {
			ms = append(ms, Move{Rule: "up", NewVal: left})
		}
		if right == plus1mod3(own) {
			ms = append(ms, Move{Rule: "down", NewVal: right})
		}
		return ms
	}
	return nil
}

// TokenAt implements Protocol: ↑t.i ∨ ↓t.i in the mod-3 encoding, with
// the endpoint privileges as in the derived system.
func (d *Dijkstra3) TokenAt(c Config, i int) bool {
	p := d.P
	left := c[(i-1+p)%p]
	right := c[(i+1)%p]
	switch i {
	case 0:
		return right == plus1mod3(c[0])
	case p - 1:
		return left == plus1mod3(c[i]) || (left == right && plus1mod3(left) != c[i])
	default:
		return left == plus1mod3(c[i]) || right == plus1mod3(c[i])
	}
}

// Legitimate implements Protocol: exactly one privilege.
func (d *Dijkstra3) Legitimate(c Config) bool { return TokenCount(d, c) == 1 }

// Dijkstra4 is Dijkstra's 4-state token ring in local-rule form. Register
// encoding: the bottom and top carry only their c bit (up.0 ≡ true,
// up.N ≡ false); middles carry c + 2·up.
type Dijkstra4 struct {
	// P is the number of processes (≥ 3).
	P int
}

// NewDijkstra4 builds the protocol for p processes.
func NewDijkstra4(p int) *Dijkstra4 {
	if p < 3 {
		panic(fmt.Sprintf("sim: Dijkstra4 needs ≥ 3 processes, got %d", p))
	}
	return &Dijkstra4{P: p}
}

// Name implements Protocol.
func (d *Dijkstra4) Name() string { return fmt.Sprintf("dijkstra4(P=%d)", d.P) }

// Procs implements Protocol.
func (d *Dijkstra4) Procs() int { return d.P }

// Domain implements Protocol.
func (d *Dijkstra4) Domain(i int) int {
	if i == 0 || i == d.P-1 {
		return 2
	}
	return 4
}

// cBit extracts the c value of process i's register.
func (d *Dijkstra4) cBit(i, v int) int {
	if i == 0 || i == d.P-1 {
		return v
	}
	return v & 1
}

// upBit extracts the up value of process i's register.
func (d *Dijkstra4) upBit(i, v int) bool {
	switch i {
	case 0:
		return true
	case d.P - 1:
		return false
	default:
		return v>>1 == 1
	}
}

// Moves implements Protocol.
func (d *Dijkstra4) Moves(i, left, own, right int) []Move {
	n := d.P - 1
	switch i {
	case n:
		// c.(N−1) ≠ c.N → c.N := c.(N−1)
		if d.cBit(n-1, left) != d.cBit(n, own) {
			return []Move{{Rule: "top", NewVal: d.cBit(n-1, left)}}
		}
	case 0:
		// c.1 = c.0 ∧ ¬up.1 → c.0 := ¬c.0
		if d.cBit(1, right) == d.cBit(0, own) && !d.upBit(1, right) {
			return []Move{{Rule: "bottom", NewVal: 1 - own}}
		}
	default:
		var ms []Move
		c := d.cBit(i, own)
		up := d.upBit(i, own)
		if d.cBit(i-1, left) != c {
			// c.j := c.(j−1); up.j := true
			ms = append(ms, Move{Rule: "up", NewVal: d.cBit(i-1, left) | 2})
		}
		if d.cBit(i+1, right) == c && !d.upBit(i+1, right) && up {
			// up.j := false
			ms = append(ms, Move{Rule: "down", NewVal: c})
		}
		return ms
	}
	return nil
}

// TokenAt implements Protocol: a process is privileged iff one of its
// guards is enabled.
func (d *Dijkstra4) TokenAt(c Config, i int) bool {
	p := d.P
	return len(d.Moves(i, c[(i-1+p)%p], c[i], c[(i+1)%p])) > 0
}

// Legitimate implements Protocol.
func (d *Dijkstra4) Legitimate(c Config) bool { return TokenCount(d, c) == 1 }

// KState is Dijkstra's K-state token ring in local-rule form.
type KState struct {
	// P is the number of processes, K the counter modulus.
	P, K int
}

// NewKState builds the protocol.
func NewKState(p, k int) *KState {
	if p < 3 || k < 2 {
		panic(fmt.Sprintf("sim: KState needs P ≥ 3 and K ≥ 2, got P=%d K=%d", p, k))
	}
	return &KState{P: p, K: k}
}

// Name implements Protocol.
func (ks *KState) Name() string { return fmt.Sprintf("kstate(P=%d,K=%d)", ks.P, ks.K) }

// Procs implements Protocol.
func (ks *KState) Procs() int { return ks.P }

// Domain implements Protocol.
func (ks *KState) Domain(int) int { return ks.K }

// Moves implements Protocol.
func (ks *KState) Moves(i, left, own, _ int) []Move {
	if i == 0 {
		// x.0 = x.N → x.0 := x.0 + 1 (x.N is 0's left neighbor on the ring)
		if own == left {
			return []Move{{Rule: "bottom", NewVal: (own + 1) % ks.K}}
		}
		return nil
	}
	if own != left {
		return []Move{{Rule: "copy", NewVal: left}}
	}
	return nil
}

// TokenAt implements Protocol.
func (ks *KState) TokenAt(c Config, i int) bool {
	if i == 0 {
		return c[0] == c[ks.P-1]
	}
	return c[i] != c[i-1]
}

// Legitimate implements Protocol.
func (ks *KState) Legitimate(c Config) bool { return TokenCount(ks, c) == 1 }

// NewThree is the Section 6 new 3-state system in local-rule form:
// C3's own-write token passing plus the wrappers W1″ (at the top) and W2′
// (deletion, taking local priority over the passing rules — the
// simulator's rendering of the PriorityBox convention). τ moves are not
// reported.
type NewThree struct {
	// P is the number of processes (≥ 3).
	P int
}

// NewNewThree builds the protocol.
func NewNewThree(p int) *NewThree {
	if p < 3 {
		panic(fmt.Sprintf("sim: NewThree needs ≥ 3 processes, got %d", p))
	}
	return &NewThree{P: p}
}

// Name implements Protocol.
func (nt *NewThree) Name() string { return fmt.Sprintf("newthree(P=%d)", nt.P) }

// Procs implements Protocol.
func (nt *NewThree) Procs() int { return nt.P }

// Domain implements Protocol.
func (nt *NewThree) Domain(int) int { return 3 }

// Moves implements Protocol.
func (nt *NewThree) Moves(i, left, own, right int) []Move {
	switch i {
	case 0:
		if right == plus1mod3(own) {
			return []Move{{Rule: "bottom", NewVal: plus1mod3(right)}}
		}
	case nt.P - 1:
		var ms []Move
		// C3's top: ↑t.N → c.N := c.(N−1)⊕1.
		if left == plus1mod3(own) {
			ms = append(ms, Move{Rule: "top", NewVal: plus1mod3(left)})
		}
		// W1″: c.(N−1) = c.0 ∧ c.N ≠ c.(N−1)⊕1 → c.N := c.(N−1)⊕1.
		if left == right && own != plus1mod3(left) {
			ms = append(ms, Move{Rule: "W1''", NewVal: plus1mod3(left)})
		}
		return ms
	default:
		up := left == plus1mod3(own)
		down := right == plus1mod3(own)
		if up && down {
			// W2′ deletion preempts the passing rules locally.
			return []Move{{Rule: "W2'", NewVal: left}}
		}
		var ms []Move
		if up {
			if v := plus1mod3(right); v != own {
				ms = append(ms, Move{Rule: "up", NewVal: v})
			}
		}
		if down {
			if v := plus1mod3(left); v != own {
				ms = append(ms, Move{Rule: "down", NewVal: v})
			}
		}
		return ms
	}
	return nil
}

// TokenAt implements Protocol. The top is privileged when either its C3
// rule or W1″ is enabled, mirroring Dijkstra3's merged top guard.
func (nt *NewThree) TokenAt(c Config, i int) bool {
	p := nt.P
	left := c[(i-1+p)%p]
	right := c[(i+1)%p]
	switch i {
	case 0:
		return right == plus1mod3(c[0])
	case p - 1:
		return left == plus1mod3(c[i]) || (left == right && c[i] != plus1mod3(left))
	default:
		return left == plus1mod3(c[i]) || right == plus1mod3(c[i])
	}
}

// Legitimate implements Protocol.
func (nt *NewThree) Legitimate(c Config) bool { return TokenCount(nt, c) == 1 }

// ErrUnknownFamily is wrapped by NewProtocol's error for a family name
// it does not know.
var ErrUnknownFamily = errors.New("unknown family")

// NewProtocol builds a protocol family by name with p processes; k is
// the counter modulus and matters only to kstate. Out-of-range
// parameters are an error, not a panic, so callers can pass user input
// straight through.
func NewProtocol(family string, p, k int) (Protocol, error) {
	if p < 3 {
		return nil, fmt.Errorf("%s needs at least 3 processes, got %d", family, p)
	}
	switch family {
	case "dijkstra3":
		return NewDijkstra3(p), nil
	case "dijkstra4":
		return NewDijkstra4(p), nil
	case "kstate":
		if k < 2 {
			return nil, fmt.Errorf("kstate needs k ≥ 2, got %d", k)
		}
		return NewKState(p, k), nil
	case "newthree":
		return NewNewThree(p), nil
	}
	return nil, fmt.Errorf("%w %q (want dijkstra3 | dijkstra4 | kstate | newthree)", ErrUnknownFamily, family)
}
