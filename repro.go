// Package repro is a Go reproduction of "Convergence Refinement"
// (Demirbas & Arora, ICDCS 2002): stabilization-preserving refinement of
// finite-state systems, graybox design of stabilization via wrappers, and
// the formal derivations of Dijkstra's 3-state, 4-state, and K-state
// token-ring systems.
//
// The package is a facade over the implementation packages:
//
//   - automata over structured finite state spaces, the box ([])
//     composition, priority composition, and abstraction functions
//     (internal/system);
//   - decision procedures for the paper's relations — refinement,
//     everywhere refinement, convergence refinement, everywhere-eventually
//     refinement, and "C is stabilizing to A" — with counterexample
//     witnesses (internal/core);
//   - a guarded-command language matching the paper's notation, compiled
//     to automata (internal/gcl) — the one way to define a system's
//     actions;
//   - every token-ring system of Sections 3–6 plus the technical report's
//     K-state derivation, each compiled from guarded-command source
//     generated per ring size (internal/ring);
//   - a ring simulator with pluggable daemons and fault injection
//     (internal/sim), the Section 1 compiler example on a small stack
//     machine (internal/vm), and the Section 1 bidding server
//     (internal/bidding);
//   - the E1–E22 experiment suite regenerating every claim
//     (internal/experiments).
//
// Quick start:
//
//	b := repro.NewBTR(3)                          // abstract ring, N=3
//	wrapped := b.Wrapped()                        // BTR [] W1 <] W2
//	rep := repro.Stabilizing(wrapped, b.System(), nil)
//	fmt.Println(rep.Verdict)                      // ✓ ... is stabilizing to ...
package repro

import (
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/gcl"
	"repro/internal/mc"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/system"
	"repro/internal/vm"
)

// Automaton substrate (internal/system).
type (
	// System is the paper's finite-state automaton (Σ, T, I).
	System = system.System
	// Builder accumulates transitions and initial states for a System.
	Builder = system.Builder
	// Space is a product of finite-domain variables encoding Σ.
	Space = system.Space
	// Var is one finite-domain variable of a Space.
	Var = system.Var
	// Vals is a decoded state: one value per variable.
	Vals = system.Vals
	// Abstraction is a total mapping between state spaces (Section 2.3).
	Abstraction = system.Abstraction
	// LabeledSystem is an automaton with action identity, for
	// fairness-aware analysis.
	LabeledSystem = system.LabeledSystem
)

// Re-exported constructors and operators of the automaton substrate.
var (
	// NewSpace builds a state space from variables.
	NewSpace = system.NewSpace
	// Bool declares a two-valued variable.
	Bool = system.Bool
	// Int declares a variable over 0..card-1.
	Int = system.Int
	// NewBuilder starts a raw automaton over [0, n).
	NewBuilder = system.NewBuilder
	// NewSpaceBuilder starts an automaton over a structured space.
	NewSpaceBuilder = system.NewSpaceBuilder
	// Box is the paper's [] operator: union of automata.
	Box = system.Box
	// BoxAll folds Box over several systems.
	BoxAll = system.BoxAll
	// PriorityBox composes a system with a preempting wrapper.
	PriorityBox = system.PriorityBox
	// NewAbstraction tabulates an abstraction function.
	NewAbstraction = system.NewAbstraction
	// MapSpaces builds an abstraction between structured spaces.
	MapSpaces = system.MapSpaces
	// IdentityAbstraction is the identity on a shared state space.
	IdentityAbstraction = system.Identity
	// TransitionsEqual compares transition relations.
	TransitionsEqual = system.TransitionsEqual
	// WriteDOT renders an automaton in Graphviz format.
	WriteDOT = system.WriteDOT
)

// Relations and checkers (internal/core).
type (
	// Verdict is the outcome of a relation check, with witnesses.
	Verdict = core.Verdict
	// ConvergenceReport details a convergence-refinement check.
	ConvergenceReport = core.ConvergenceReport
	// StabilizationReport details a stabilization check.
	StabilizationReport = core.StabilizationReport
	// Compression is a concrete step covering a multi-step abstract path.
	Compression = core.Compression
	// TheoremCheck replays one of the paper's metatheorems on an instance.
	TheoremCheck = core.TheoremCheck
)

// Re-exported decision procedures (Sections 2 and 7).
var (
	// RefinementInit decides [C ⊑ A]_init.
	RefinementInit = core.RefinementInit
	// EverywhereRefinement decides [C ⊑ A].
	EverywhereRefinement = core.EverywhereRefinement
	// ConvergenceRefinement decides [C ⪯ A].
	ConvergenceRefinement = core.ConvergenceRefinement
	// EverywhereEventuallyRefinement decides the Section 7 relation.
	EverywhereEventuallyRefinement = core.EverywhereEventuallyRefinement
	// Stabilizing decides "C is stabilizing to A".
	Stabilizing = core.Stabilizing
	// FairStabilizing decides stabilization under weak fairness (labeled
	// systems).
	FairStabilizing = core.FairStabilizing
	// SelfStabilizing decides "A is stabilizing to A".
	SelfStabilizing = core.SelfStabilizing
	// Theorem1, Theorem3 and Theorem5 replay the paper's metatheorems.
	Theorem1 = core.Theorem1
	Theorem3 = core.Theorem3
	Theorem5 = core.Theorem5
	// Fig1 builds the Figure 1 counterexample systems.
	Fig1 = core.Fig1
	// OddEvenRecovery builds the Section 7 separation example.
	OddEvenRecovery = core.OddEvenRecovery
	// WorstCaseRecovery computes the exact adversarial worst-case number
	// of steps to the legitimate region of a stabilizing system.
	WorstCaseRecovery = mc.WorstCaseRecovery
)

// Token-ring systems (internal/ring).
type (
	// BTR is the abstract bidirectional token ring of Section 3.
	BTR = ring.BTR
	// FourState is the Section 4 encoding (BTR4, C1, Dijkstra-4).
	FourState = ring.FourState
	// ThreeState is the Section 5/6 encoding (BTR3, C2, C3, Dijkstra-3).
	ThreeState = ring.ThreeState
	// UTR is the abstract unidirectional ring of the TR derivation.
	UTR = ring.UTR
	// KState is Dijkstra's K-state system.
	KState = ring.KState
)

// Re-exported ring constructors.
var (
	// NewBTR builds the abstract bidirectional ring for top index N.
	NewBTR = ring.NewBTR
	// NewFourState builds the 4-state encoding.
	NewFourState = ring.NewFourState
	// NewThreeState builds the 3-state encoding.
	NewThreeState = ring.NewThreeState
	// NewUTR builds the unidirectional ring.
	NewUTR = ring.NewUTR
	// NewKState builds the K-state system.
	NewKState = ring.NewKState
)

// Guarded-command language (internal/gcl).
type (
	// GCLProgram is a parsed guarded-command program.
	GCLProgram = gcl.Program
	// GCLCompiled bundles a checked program with its automaton.
	GCLCompiled = gcl.Compiled
)

// Re-exported GCL entry points.
var (
	// ParseGCL parses guarded-command source.
	ParseGCL = gcl.Parse
	// CompileGCL parses, checks, and enumerates guarded-command source.
	CompileGCL = gcl.Compile
	// OptimizeGCL simplifies a compiled program and certifies the rewrite
	// stabilization preserving (the paper's "refinement tool" realized).
	OptimizeGCL = gcl.OptimizeAndCertify
)

// Simulator (internal/sim).
type (
	// Protocol is a ring protocol compiled from a GCL ring template.
	Protocol = sim.Protocol
	// SimConfig is a ring configuration.
	SimConfig = sim.Config
	// Daemon chooses the next move from a configuration and its enabled
	// moves.
	Daemon = sim.Daemon
	// Runner steps a protocol under a daemon; its OnStep hook sees each
	// move before it is applied.
	Runner = sim.Runner
	// LiveRing runs a protocol with one goroutine per process.
	LiveRing = sim.LiveRing
)

// Re-exported simulator constructors.
var (
	// NewProtocol builds a protocol family (dijkstra3, dijkstra4, kstate,
	// newthree) for P processes from its GCL ring template.
	NewProtocol = sim.NewProtocol
	// NewRandomDaemon builds a seeded random scheduler.
	NewRandomDaemon = sim.NewRandomDaemon
	// NewRoundRobinDaemon builds a cyclic scheduler.
	NewRoundRobinDaemon = sim.NewRoundRobinDaemon
	// NewGreedyDaemon builds the adversarial scheduler.
	NewGreedyDaemon = sim.NewGreedyDaemon
	// MeasureConvergence aggregates steps-to-legitimacy over many runs.
	MeasureConvergence = sim.MeasureConvergence
)

// Compiler example (internal/vm).
type (
	// VMProgram is a stack-machine program.
	VMProgram = vm.Program
	// Machine executes VM programs.
	Machine = vm.Machine
)

// Re-exported VM entry points.
var (
	// ParseMiniSource parses the Section 1 mini language.
	ParseMiniSource = vm.ParseSource
	// CompileMini compiles it with a chosen strategy.
	CompileMini = vm.Compile
)

// Experiments is the E1–E22 suite regenerating the paper's results.
var Experiments = experiments.All
