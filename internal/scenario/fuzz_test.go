package scenario

import "testing"

// FuzzParse feeds the parser arbitrary text, seeded with the twelve
// built-ins. Every input must either fail to parse with an error or
// yield a scenario that passes Validate; none may panic. Plain
// `go test` runs the seed corpus; `go test -fuzz FuzzParse` explores.
func FuzzParse(f *testing.F) {
	for _, name := range BuiltinNames() {
		f.Add(builtins[name])
	}
	f.Fuzz(func(t *testing.T, text string) {
		sc, err := ParseString(text)
		if err != nil {
			return
		}
		if err := sc.Validate(); err != nil {
			t.Errorf("parsed scenario fails Validate: %v", err)
		}
	})
}
