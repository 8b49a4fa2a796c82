// Package fleet runs N checkd replicas as one logical service: a
// consistent-hash ring keyed on gcl.Fingerprint routes each
// program-addressed request (selfstab, refine, lint) to its owner
// replica, a distributed verdict cache layers anti-entropy sync on the
// persistent cache's kind-tagged snapshot framing, and a membership
// monitor watches replicas join, leave, crash, and recover — under the
// same chaos campaign engine that batters the ring protocols.
//
// The design dogfoods the paper's own thesis: the fleet's control
// plane (ring membership, cache contents) self-stabilizes through
// transient corruption. A partition makes replicas suspect each other
// and shrink their rings; requests owned by an unreachable replica
// fall back to local compute, never a 5xx; when the partition heals,
// heartbeats re-admit the peers, rings re-converge to agreement, and
// anti-entropy rounds pull the verdicts computed on the other side of
// the cut. No step of this requires a correct past — exactly the
// unsupportive-environment regime the convergence-refinement paper
// assumes of its protocols.
package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
)

// Ring is a consistent-hash ring over replica ids. Each member
// projects vnodes points onto a 64-bit circle; a key is owned by the
// member of the first point clockwise of the key's hash. The
// projection is pure (SHA-256 of member id and vnode index), so every
// replica that agrees on the member set agrees on every owner — there
// is no coordination, and after a membership change only the keys
// whose arcs moved change owner (≈ 1/N of the space per member).
//
// Ring is not goroutine-safe; the Replica guards it with its own lock.
type Ring struct {
	vnodes  int
	members map[string]bool
	points  []ringPoint // sorted by hash
}

type ringPoint struct {
	hash   uint64
	member string
}

// NewRing builds an empty ring with vnodes points per member
// (vnodes ≤ 0 selects the default of 64).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = 64
	}
	return &Ring{vnodes: vnodes, members: make(map[string]bool)}
}

// hashBytes maps arbitrary bytes to a point on the circle.
func hashBytes(b []byte) uint64 {
	sum := sha256.Sum256(b)
	return binary.BigEndian.Uint64(sum[:8])
}

// Add inserts a member (idempotent).
func (r *Ring) Add(member string) {
	if r.members[member] {
		return
	}
	r.members[member] = true
	var buf []byte
	for i := 0; i < r.vnodes; i++ {
		buf = buf[:0]
		buf = append(buf, member...)
		buf = append(buf, '#')
		buf = binary.BigEndian.AppendUint32(buf, uint32(i))
		r.points = append(r.points, ringPoint{hash: hashBytes(buf), member: member})
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].member < r.points[j].member
	})
}

// Remove deletes a member (idempotent).
func (r *Ring) Remove(member string) {
	if !r.members[member] {
		return
	}
	delete(r.members, member)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.member != member {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Has reports membership.
func (r *Ring) Has(member string) bool { return r.members[member] }

// Members returns the member set, sorted.
func (r *Ring) Members() []string {
	out := make([]string, 0, len(r.members))
	for m := range r.members {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// Size returns the number of members.
func (r *Ring) Size() int { return len(r.members) }

// Owner returns the member owning key, or "" when the ring is empty.
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := hashBytes([]byte(key))
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: first point clockwise of the circle's end
	}
	return r.points[i].member
}
