// Command gclc is the guarded-command language tool: it parses, checks,
// formats, enumerates, and model-checks GCL programs written in the
// paper's notation.
//
// Usage:
//
//	gclc print prog.gcl          reformat the program
//	gclc info prog.gcl           state-space and automaton summary
//	gclc selfstab prog.gcl       check "prog is stabilizing to prog"
//	gclc dot prog.gcl            emit Graphviz (small programs only)
//	gclc refine C.gcl A.gcl      check [C ⊑ A]_init, [C ⊑ A], [C ⪯ A],
//	                             C stabilizing to A (shared state space)
//	gclc optimize prog.gcl       simplify the program and certify the
//	                             rewrite stabilization preserving
//	gclc lint [-json] prog.gcl   static analysis: dead guards, domain
//	                             escapes, stutter actions, … (exit 1 on
//	                             error-severity diagnostics)
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/gcl"
	"repro/internal/gcl/analysis"
	"repro/internal/mc"
	"repro/internal/system"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gclc:", err)
		os.Exit(1)
	}
}

// usageError builds a per-command usage failure that names the
// missing operand, so `gclc print` says what operand it wants instead
// of dumping the global usage line.
func usageError(cmd, operands, missing string) error {
	return fmt.Errorf("usage: gclc %s %s: missing %s operand", cmd, operands, missing)
}

func run(args []string, out io.Writer) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: gclc <print|info|selfstab|dot|refine|optimize|lint> [-json] <file.gcl> [file2.gcl]")
	}
	cmd := args[0]
	args = args[1:]

	// lint takes an optional -json flag before its file operand; the
	// other commands take plain file operands.
	jsonOut := false
	if cmd == "lint" && len(args) > 0 && args[0] == "-json" {
		jsonOut = true
		args = args[1:]
	}
	if len(args) < 1 {
		operands := "<file.gcl>"
		if cmd == "refine" {
			operands = "<concrete.gcl> <abstract.gcl>"
		} else if cmd == "lint" {
			operands = "[-json] <file.gcl>"
		}
		return usageError(cmd, operands, "file")
	}
	path := args[0]

	compile := func(p string) (*gcl.Compiled, error) {
		src, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		return gcl.Compile(p, string(src))
	}

	switch cmd {
	case "print":
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		prog, err := gcl.Parse(string(src))
		if err != nil {
			return err
		}
		fmt.Fprint(out, prog)
		return nil

	case "lint":
		return runLint(path, jsonOut, out)

	case "info":
		c, err := compile(path)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, c.System)
		fmt.Fprintf(out, "variables: %d, actions: %d\n", len(c.Program.Vars), len(c.Program.Actions))
		return nil

	case "selfstab":
		c, err := compile(path)
		if err != nil {
			return err
		}
		rep := core.SelfStabilizing(c.System)
		fmt.Fprintln(out, rep.Verdict)
		if !rep.Holds && len(rep.Witness) > 0 {
			fmt.Fprintln(out, "counterexample:", rep.FormatWitness(c.System))
		}
		return nil

	case "dot":
		c, err := compile(path)
		if err != nil {
			return err
		}
		if c.System.NumStates() > 512 {
			return fmt.Errorf("%d states is too large to draw usefully", c.System.NumStates())
		}
		return system.WriteDOT(out, c.System, nil)

	case "refine":
		if len(args) < 2 {
			return usageError("refine", "<concrete.gcl> <abstract.gcl>", "abstract file")
		}
		cc, err := compile(path)
		if err != nil {
			return err
		}
		ca, err := compile(args[1])
		if err != nil {
			return err
		}
		if !cc.Space.SameShape(ca.Space) {
			return fmt.Errorf("programs declare different state spaces; refine requires a shared space")
		}
		fmt.Fprintln(out, core.RefinementInit(cc.System, ca.System, nil))
		fmt.Fprintln(out, core.EverywhereRefinement(cc.System, ca.System, nil))
		fmt.Fprintln(out, core.ConvergenceRefinement(cc.System, ca.System, nil).Verdict)
		fmt.Fprintln(out, core.Stabilizing(cc.System, ca.System, nil).Verdict)
		return nil

	case "optimize":
		c, err := compile(path)
		if err != nil {
			return err
		}
		opt, cert, notes, err := gcl.OptimizeAndCertify(c)
		if err != nil {
			return err
		}
		for _, n := range notes {
			fmt.Fprintln(out, "//", n)
		}
		fmt.Fprint(out, opt.Program)
		fmt.Fprintln(out, "//", cert)
		if !cert.Preserved() {
			return fmt.Errorf("optimization not certified; do not adopt")
		}
		return nil

	default:
		return fmt.Errorf("unknown subcommand %q", cmd)
	}
}

// lintBudget bounds the exact tier's enumeration so linting a
// pathological program stays interactive; past the budget the
// interval tier's approx verdicts are reported instead.
const lintBudget = 5_000_000

// lintJSON is the machine-readable lint report, shared in shape with
// the /v1/lint service endpoint.
type lintJSON struct {
	Program         string          `json:"program"`
	States          int             `json:"states"`
	Exact           bool            `json:"exact"`
	AnalyzerVersion string          `json:"analyzer_version"`
	Errors          int             `json:"errors"`
	Diags           []analysis.Diag `json:"diags"`
}

func runLint(path string, jsonOut bool, out io.Writer) error {
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	prog, err := gcl.Parse(string(src))
	if err != nil {
		return err
	}
	res, err := analysis.Analyze(prog, analysis.Options{
		Exact: true,
		Gas:   mc.NewGas(nil, lintBudget),
	})
	if err != nil {
		return err
	}
	nErrors := analysis.ErrorCount(res.Diags)
	if jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(lintJSON{
			Program:         gcl.Fingerprint(prog),
			States:          res.States,
			Exact:           res.Exact,
			AnalyzerVersion: analysis.Version(),
			Errors:          nErrors,
			Diags:           res.Diags,
		}); err != nil {
			return err
		}
	} else {
		for _, d := range res.Diags {
			fmt.Fprintf(out, "%s:%s\n", path, d)
			for _, rel := range d.Related {
				fmt.Fprintf(out, "\t%s:%s\n", path, rel)
			}
		}
	}
	if nErrors > 0 {
		return fmt.Errorf("%s: %d error diagnostic(s)", path, nErrors)
	}
	return nil
}
