package scenario

import (
	"os"
	"strings"
	"testing"
)

// TestReadmeListsEveryBuiltin keeps the README's built-in tables in
// step with the registry — the drift this PR fixed (the docs said
// "nine"/"ten" while eleven existed) stays fixed.
func TestReadmeListsEveryBuiltin(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(readme)
	for _, name := range BuiltinNames() {
		if !strings.Contains(text, "`"+name+"`") {
			t.Errorf("README.md does not mention built-in `%s`", name)
		}
	}
}

// TestPackageDocCountsBuiltins keeps the scenario package doc's
// spelled-out census honest.
func TestPackageDocCountsBuiltins(t *testing.T) {
	words := map[int]string{9: "Nine", 10: "Ten", 11: "Eleven", 12: "Twelve", 13: "Thirteen"}
	n := len(BuiltinNames())
	word, ok := words[n]
	if !ok {
		t.Fatalf("registry grew to %d built-ins; extend this test's number table", n)
	}
	src, err := os.ReadFile("scenario.go")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(src), word+" built-in scenarios") {
		t.Errorf("scenario.go package doc does not say %q for the %d registered built-ins",
			word+" built-in scenarios", n)
	}
}
