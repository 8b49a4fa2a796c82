// Command experiments regenerates every result of the paper (experiments
// E1–E22; see DESIGN.md for the index) and prints one report per
// experiment. It exits non-zero if any mechanized outcome deviates from
// its recorded expectation.
//
// Usage:
//
//	experiments [-only E4] [-only E20,E21] [-list] [-json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(out)
	only := fs.String("only", "", "run selected experiments by ID, comma-separated (e.g. E4 or E20,E21)")
	list := fs.Bool("list", false, "list experiment IDs and titles without running")
	asJSON := fs.Bool("json", false, "emit reports as a JSON array")
	if err := fs.Parse(args); err != nil {
		return err
	}

	wanted := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			if id = strings.TrimSpace(id); id != "" {
				wanted[id] = true
			}
		}
	}
	failed := 0
	matched := false
	var collected []*experiments.Report
	for _, e := range experiments.All() {
		if *list {
			fmt.Fprintf(out, "%s  %s\n", e.ID, e.Title)
			matched = true
			continue
		}
		if len(wanted) > 0 && !wanted[e.ID] {
			continue
		}
		rep := e.Run()
		matched = true
		if *asJSON {
			collected = append(collected, rep)
		} else {
			fmt.Fprintln(out, rep)
		}
		if !rep.Pass() {
			failed++
		}
	}
	if *asJSON && !*list {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(collected); err != nil {
			return err
		}
	}
	if !matched {
		return fmt.Errorf("no experiment matches %q", *only)
	}
	if failed > 0 {
		return fmt.Errorf("%d experiment(s) deviated from expectations", failed)
	}
	return nil
}
