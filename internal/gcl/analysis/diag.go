// Package analysis is the GCL static-analysis engine: a registry of
// independent analyzers run over a checked *gcl.Program, reporting
// stable-coded diagnostics. Two tiers cooperate:
//
//   - an abstract-interpretation tier evaluates every expression over
//     the interval + constant domain induced by the declared variable
//     ranges — cheap (linear in program size, independent of the state
//     space) and sound for its "definitely" claims, but incomplete;
//   - an exact tier enumerates small state spaces under an mc.Gas
//     budget, confirming or downgrading the interval tier's verdicts,
//     and adding the diagnostics that need real reachability.
//
// The motivation is the paper's Figure 1 trap: a dead guard or an
// out-of-domain assignment silently shrinks the reachable state space
// and makes the convergence-refinement battery vacuously pass. Lint
// verdicts surface such defects before any model checking runs.
package analysis

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"slices"

	"repro/internal/gcl"
)

// Severity grades a diagnostic. Errors make `gclc lint` exit nonzero;
// warnings and infos do not.
type Severity int

// Severity levels, weakest first.
const (
	SevInfo Severity = iota
	SevWarning
	SevError
)

// String names the severity.
func (s Severity) String() string {
	switch s {
	case SevError:
		return "error"
	case SevWarning:
		return "warning"
	default:
		return "info"
	}
}

// The names' encodings, shared by every MarshalText call and never
// written to: encoding/json copies what MarshalText returns.
var (
	severityText   = [...][]byte{SevInfo: []byte("info"), SevWarning: []byte("warning"), SevError: []byte("error")}
	confidenceText = [...][]byte{ConfApprox: []byte("approx"), ConfExact: []byte("exact")}
)

// MarshalText renders the severity as its lowercase name, the form
// encoding/json writes. The returned slice is shared and must not be
// modified.
func (s Severity) MarshalText() ([]byte, error) {
	if s == SevWarning || s == SevError {
		return severityText[s], nil
	}
	return severityText[SevInfo], nil
}

// UnmarshalJSON rejects null, which encoding/json would otherwise skip
// and leave the severity at info, and parses a name with UnmarshalText.
func (s *Severity) UnmarshalJSON(b []byte) error {
	name, err := jsonName(b, "severity")
	if err != nil {
		return err
	}
	return s.UnmarshalText(name)
}

// UnmarshalText parses the lowercase name back.
func (s *Severity) UnmarshalText(b []byte) error {
	switch string(b) {
	case "error":
		*s = SevError
	case "warning":
		*s = SevWarning
	case "info":
		*s = SevInfo
	default:
		return fmt.Errorf("unknown severity %q", b)
	}
	return nil
}

// Confidence records which tier established a diagnostic. Approx means
// the interval abstraction; Exact means state-space enumeration
// confirmed it (mirroring the optimizer's Certificate levels: an
// abstract proof is sound but a concrete witness is stronger and can
// carry an example state).
type Confidence int

// Confidence levels.
const (
	ConfApprox Confidence = iota
	ConfExact
)

// String names the confidence.
func (c Confidence) String() string {
	if c == ConfExact {
		return "exact"
	}
	return "approx"
}

// MarshalText renders the confidence as its lowercase name. The
// returned slice is shared and must not be modified.
func (c Confidence) MarshalText() ([]byte, error) {
	if c == ConfExact {
		return confidenceText[ConfExact], nil
	}
	return confidenceText[ConfApprox], nil
}

// UnmarshalJSON rejects null and parses a name with UnmarshalText.
func (c *Confidence) UnmarshalJSON(b []byte) error {
	name, err := jsonName(b, "confidence")
	if err != nil {
		return err
	}
	return c.UnmarshalText(name)
}

// UnmarshalText parses the lowercase name back.
func (c *Confidence) UnmarshalText(b []byte) error {
	switch string(b) {
	case "exact":
		*c = ConfExact
	case "approx":
		*c = ConfApprox
	default:
		return fmt.Errorf("unknown confidence %q", b)
	}
	return nil
}

// jsonName returns the name a JSON string holds; null and every other
// JSON value are errors naming what was expected. A string without
// escapes, which is every name this package writes, is sliced out of b
// in place, so decoding a report does not allocate per name.
func jsonName(b []byte, what string) ([]byte, error) {
	if len(b) >= 2 && b[0] == '"' && b[len(b)-1] == '"' && bytes.IndexByte(b, '\\') < 0 {
		return b[1 : len(b)-1], nil
	}
	if string(b) == "null" {
		return nil, fmt.Errorf("%s is null, want a name", what)
	}
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return nil, fmt.Errorf("%s %s is not a name", what, b)
	}
	return []byte(name), nil
}

// Code is a stable diagnostic code. Codes are append-only: a released
// code never changes meaning, so CI suppressions and the verdict cache
// stay valid across versions.
type Code string

// The diagnostic codes. docs/diagnostics.md documents each one.
const (
	// CodeDeadGuard: an action's guard can never be satisfied.
	CodeDeadGuard Code = "GCL001"
	// CodeTautologyGuard: a non-literal guard is always true.
	CodeTautologyGuard Code = "GCL002"
	// CodeDomainEscape: an assignment's value can leave the target's
	// declared domain (compilation would reject the program).
	CodeDomainEscape Code = "GCL003"
	// CodeUnreachableAction: the guard is satisfiable, but never in a
	// state reachable from init.
	CodeUnreachableAction Code = "GCL004"
	// CodeUnusedVar: a declared variable is never read or written.
	CodeUnusedVar Code = "GCL005"
	// CodeWriteOnlyVar: a variable is assigned but never read.
	CodeWriteOnlyVar Code = "GCL006"
	// CodeOverlappingGuards: two actions are simultaneously enabled in
	// some state and move to different successors.
	CodeOverlappingGuards Code = "GCL007"
	// CodeStutterAction: every assignment of an action provably rewrites
	// the current value — the action is a τ self-loop.
	CodeStutterAction Code = "GCL008"
	// CodeInitUnsat: the init predicate is unsatisfiable.
	CodeInitUnsat Code = "GCL009"
	// CodeConstCond: a condition subexpression is constant over the
	// declared domains.
	CodeConstCond Code = "GCL010"
	// CodeUnreachableStatic: the interval reachability fixpoint proves
	// the guard holds in no state reachable from init — GCL004's claim,
	// established without enumerating the state space.
	CodeUnreachableStatic Code = "GCL011"
)

// Related points at a secondary source location supporting a
// diagnostic (the other action of an overlap, a witness state, …).
type Related struct {
	gcl.Pos
	Msg string `json:"msg"`
}

// String renders the note as "line:col: msg".
func (r Related) String() string { return fmt.Sprintf("%s: %s", r.Pos, r.Msg) }

// Diag is one diagnostic. Its JSON form, consumed by `gclc lint -json`
// and the /v1/lint endpoint, is flat: the position's line and col, then
// the remaining fields under their tags, so API clients decode a lint
// report into the same type the analyzer produces.
type Diag struct {
	gcl.Pos
	Code       Code       `json:"code"`
	Severity   Severity   `json:"severity"`
	Confidence Confidence `json:"confidence"`
	Msg        string     `json:"msg"`
	Related    []Related  `json:"related,omitempty"`
}

// String renders the diagnostic in the usual file-less compiler shape:
// "line:col: severity CODE: msg (confidence)".
func (d Diag) String() string {
	return fmt.Sprintf("%s: %s %s: %s (%s)", d.Pos, d.Severity, d.Code, d.Msg, d.Confidence)
}

// Sort orders diagnostics by position, then code, then message, and
// drops exact duplicates (same position, code, and message) — two
// analyzers agreeing on a finding report it once.
func Sort(diags []Diag) []Diag {
	// Sort a permutation rather than the diagnostics, which are large and
	// hold pointers, breaking ties by index so the order is stable; then
	// move each diagnostic once, cycle by cycle.
	perm := make([]int, len(diags))
	for i := range perm {
		perm[i] = i
	}
	slices.SortFunc(perm, func(i, j int) int {
		a, b := &diags[i], &diags[j]
		if a.Line != b.Line {
			return cmp.Compare(a.Line, b.Line)
		}
		if a.Col != b.Col {
			return cmp.Compare(a.Col, b.Col)
		}
		if a.Code != b.Code {
			return cmp.Compare(a.Code, b.Code)
		}
		if a.Msg != b.Msg {
			return cmp.Compare(a.Msg, b.Msg)
		}
		return cmp.Compare(i, j)
	})
	for start, src := range perm {
		if src < 0 || src == start {
			continue
		}
		d, p := diags[start], start
		for {
			src, perm[p] = perm[p], -1
			if src == start {
				diags[p] = d
				break
			}
			diags[p], p = diags[src], src
		}
	}
	out := diags[:0]
	for i, d := range diags {
		if i > 0 {
			prev := out[len(out)-1]
			if prev.Pos == d.Pos && prev.Code == d.Code && prev.Msg == d.Msg {
				// Keep the stronger confidence of the two.
				if d.Confidence > prev.Confidence {
					out[len(out)-1] = d
				}
				continue
			}
		}
		out = append(out, d)
	}
	return out
}

// ErrorCount counts error-severity diagnostics; `gclc lint` maps a
// nonzero count to exit code 1.
func ErrorCount(diags []Diag) int {
	n := 0
	for _, d := range diags {
		if d.Severity == SevError {
			n++
		}
	}
	return n
}
