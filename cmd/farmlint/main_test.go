package main

import (
	"bytes"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
)

// writeModule lays out a throwaway module from path -> contents.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	mod := t.TempDir()
	for path, contents := range files {
		full := filepath.Join(mod, filepath.FromSlash(path))
		if err := os.MkdirAll(filepath.Dir(full), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(contents), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	return mod
}

// TestCrossPackageFinding runs the driver over a two-package module in
// which b imports a and both name a salt with the same value: the
// collision is only visible once a's facts have crossed the package
// boundary, so the finding proves facts flow through the driver.
func TestCrossPackageFinding(t *testing.T) {
	if testing.Short() {
		t.Skip("loads a module with go list")
	}
	mod := writeModule(t, map[string]string{
		"go.mod": "module saltfix\n\ngo 1.22\n",
		"a/a.go": `// Package a exports its salt registry as a farmlint fact.
package a

// AlphaSeedSalt isolates a's stream.
const AlphaSeedSalt = 0x5eed

// Seed derives a's stream.
func Seed(run uint64) uint64 { return run ^ AlphaSeedSalt }
`,
		"b/b.go": `// Package b collides with a's salt; only a's imported fact reveals it.
package b

import "saltfix/a"

// betaSeedSalt accidentally repeats a.AlphaSeedSalt's value.
const betaSeedSalt = 0x5eed

// Seed derives b's stream on top of a's.
func Seed(run uint64) uint64 { return a.Seed(run) ^ betaSeedSalt }
`,
	})
	var stdout, stderr bytes.Buffer
	if code := run(mod, []string{"./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
	}
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	var found []string
	for _, l := range lines {
		if strings.Contains(l, "rngsalt: ") && strings.Contains(l, "collides with saltfix/a.AlphaSeedSalt") {
			found = append(found, l)
		}
	}
	if len(found) != 1 {
		t.Fatalf("want the collision printed once, got %d in:\n%s", len(found), &stdout)
	}
	if !strings.Contains(found[0], filepath.Join("b", "b.go")+":") {
		t.Errorf("collision reported at %q; want b/b.go (the lexicographically-last declaration)", found[0])
	}
	if !strings.Contains(stderr.String(), "finding(s)") {
		t.Errorf("stderr missing the finding count:\n%s", &stderr)
	}
}

// TestCleanModule checks a module with nothing to report exits 0 and
// prints nothing.
func TestCleanModule(t *testing.T) {
	if testing.Short() {
		t.Skip("loads a module with go list")
	}
	mod := writeModule(t, map[string]string{
		"go.mod": "module cleanfix\n\ngo 1.22\n",
		"c/c.go": `// Package c derives a stream from a named salt.
package c

// gammaSeedSalt isolates c's stream.
const gammaSeedSalt = 0xc0ffee

// Seed derives c's stream.
func Seed(run uint64) uint64 { return run ^ gammaSeedSalt }
`,
	})
	var stdout, stderr bytes.Buffer
	if code := run(mod, nil, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, want 0\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
	}
	if stdout.Len() != 0 {
		t.Errorf("clean module printed findings:\n%s", &stdout)
	}
}

// TestUnknownFormat checks only text and github are accepted.
func TestUnknownFormat(t *testing.T) {
	for _, format := range []string{"json", ""} {
		var stdout, stderr bytes.Buffer
		if code := run(t.TempDir(), []string{"-format=" + format, "./..."}, &stdout, &stderr); code != 1 {
			t.Errorf("-format=%q: exit %d, want 1", format, code)
		}
		if !strings.Contains(stderr.String(), "unknown -format") {
			t.Errorf("-format=%q: stderr %q does not name the bad format", format, &stderr)
		}
	}
}

// TestGitHubFormat checks the workflow-command line, with the message's
// %, CR and LF percent-escaped so one finding stays one command.
func TestGitHubFormat(t *testing.T) {
	d := lint.Diagnostic{
		Pos:      token.Position{Filename: "internal/core/x.go", Line: 12, Column: 3},
		Analyzer: "nodeterm",
		Message:  "100% wall\r\nclock",
	}
	var buf bytes.Buffer
	writeDiagnostic(&buf, "github", d)
	want := "::error file=internal/core/x.go,line=12,col=3,title=farmlint/nodeterm::100%25 wall%0D%0Aclock\n"
	if buf.String() != want {
		t.Errorf("github line:\n got %q\nwant %q", buf.String(), want)
	}
	buf.Reset()
	writeDiagnostic(&buf, "text", d)
	if want := d.String() + "\n"; buf.String() != want {
		t.Errorf("text line:\n got %q\nwant %q", buf.String(), want)
	}
}
