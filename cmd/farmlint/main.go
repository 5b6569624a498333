// Command farmlint runs the repo's determinism/hot-path/validation
// analyzer suite (internal/lint) over package patterns:
//
//	go run ./cmd/farmlint [-format=text|github] [packages]   (default ./...)
//
// It exits 0 when the packages are clean and 1 on findings or errors.
// Output is selected with -format:
//
//	-format=text    file:line:col: analyzer: message   (default)
//	-format=github  GitHub Actions ::error workflow commands, so findings
//	                surface as inline PR annotations
//
// The suite enforces (see DESIGN.md §10 and §15):
//
//	nodeterm    no wall clocks, global randomness, or order-dependent
//	            map walks in simulator packages
//	hotpath     //farm:hotpath functions stay structurally alloc-free
//	rngsalt     XOR stream salts are named *Salt/*Seed constants, unique
//	            across the import closure (cross-package facts)
//	unitcheck   unit-suffixed quantities (*Hours/*Ms/*MBps/*Bytes/*Ratio/
//	            *PerHour) never mix dimensions without a conversion
//	configflow  every numeric config knob (integer, float, Duration) is
//	            validated, and every knob is read outside Validate
//	            somewhere in the simulator
//	kindflow    every trace.Kind has a CheckCausality rule (or an
//	            annotation) and is emitted somewhere in the simulator
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/lint"
)

func main() {
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "farmlint: %v\n", err)
		os.Exit(1)
	}
	os.Exit(run(wd, os.Args[1:], os.Stdout, os.Stderr))
}

// run lints the patterns in args, resolved from dir, and returns the
// exit code.
func run(dir string, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("farmlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	format := fs.String("format", "text", "output format: text or github")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 1
	}
	if *format != "text" && *format != "github" {
		fmt.Fprintf(stderr, "farmlint: unknown -format %q (want text or github)\n", *format)
		return 1
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	diags, err := lint.Run(dir, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "farmlint: %v\n", err)
		return 1
	}
	for _, d := range diags {
		writeDiagnostic(stdout, *format, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "farmlint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// writeDiagnostic prints one finding in the given format.
func writeDiagnostic(w io.Writer, format string, d lint.Diagnostic) {
	if format == "github" {
		// GitHub Actions workflow command; the runner turns these into
		// inline annotations on the PR diff.
		fmt.Fprintf(w, "::error file=%s,line=%d,col=%d,title=farmlint/%s::%s\n",
			d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, githubEscape(d.Message))
		return
	}
	fmt.Fprintln(w, d)
}

// githubEscape encodes the characters GitHub's workflow-command parser
// treats as delimiters (https://docs.github.com/actions: "Workflow
// commands" — data is percent-encoded for % \r \n).
func githubEscape(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}
