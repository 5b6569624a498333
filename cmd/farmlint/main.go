// Command farmlint runs the repo's determinism/hot-path/validation
// analyzer suite (internal/lint). It speaks two protocols:
//
//	farmlint ./...                      standalone: load, analyze, report
//	go vet -vettool=$(pwd)/bin/farmlint ./...   unit-checker protocol
//
// Standalone mode exits 1 when findings exist; vettool mode follows the
// vet convention (exit 2). Standalone output is selected with -format:
//
//	-format=text    file:line:col: analyzer: message   (default)
//	-format=json    one JSON object per line: {file,line,col,analyzer,message}
//	-format=github  GitHub Actions ::error workflow commands, so findings
//	                surface as inline PR annotations
//
// The suite enforces (see DESIGN.md §10 and §15):
//
//	nodeterm    no wall clocks, global randomness, or order-dependent
//	            map walks in simulator packages
//	hotpath     //farm:hotpath functions stay structurally alloc-free
//	seqtie      heap comparators tie-break on a sequence number
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
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	var patterns []string
	format := "text"
	for _, arg := range args {
		switch {
		case arg == "-V=full" || arg == "-V":
			lint.PrintVersion(os.Stdout)
			return 0
		case arg == "-flags":
			lint.PrintFlags(os.Stdout)
			return 0
		case lint.IsVetConfig(arg):
			// go vet unit-checker protocol: one package unit per
			// invocation, config written by the go command.
			return lint.RunVetUnit(arg, os.Stderr)
		case strings.HasPrefix(arg, "-format="):
			format = strings.TrimPrefix(arg, "-format=")
			if format != "text" && format != "json" && format != "github" {
				fmt.Fprintf(os.Stderr, "farmlint: unknown -format %q (want text, json, or github)\n", format)
				return 1
			}
		case strings.HasPrefix(arg, "-"):
			// Ignore analyzer enable/disable flags the go command may
			// forward; the suite always runs in full.
		default:
			patterns = append(patterns, arg)
		}
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "farmlint: %v\n", err)
		return 1
	}
	diags, err := lint.Run(wd, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "farmlint: %v\n", err)
		return 1
	}
	for _, d := range diags {
		switch format {
		case "json":
			// One object per line so CI tooling can stream-parse the
			// findings without buffering the whole report.
			enc, _ := json.Marshal(struct {
				File     string `json:"file"`
				Line     int    `json:"line"`
				Col      int    `json:"col"`
				Analyzer string `json:"analyzer"`
				Message  string `json:"message"`
			}{d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message})
			fmt.Println(string(enc))
		case "github":
			// GitHub Actions workflow command; the runner turns these
			// into inline annotations on the PR diff. Newlines and the
			// command delimiters must be percent-escaped.
			fmt.Printf("::error file=%s,line=%d,col=%d,title=farmlint/%s::%s\n",
				d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, githubEscape(d.Message))
		default:
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "farmlint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
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
