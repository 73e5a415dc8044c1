// Package cliout holds the report-writing plumbing every qvr command
// shares: the table/json/csv format registry, the indented JSON
// encoder, a minimal CSV writer with standard quoting, and the
// uniform fatal-error exit. The science stays in the commands; the
// formatting conventions live here once, so qvr-fleet, qvr-scenario
// and qvr-capacity cannot drift apart.
package cliout

import (
	"bytes"
	"encoding"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"strings"
)

// Format is an output format selection.
type Format string

// The supported output formats.
const (
	Table Format = "table"
	JSON  Format = "json"
	CSV   Format = "csv"
)

// Formats lists the supported formats in help-text order.
var Formats = []Format{Table, JSON, CSV}

// FormatNames is the help-text spelling of the format list.
func FormatNames() string {
	names := make([]string, len(Formats))
	for i, f := range Formats {
		names[i] = string(f)
	}
	return strings.Join(names, " ")
}

// ParseFormat resolves a -format flag value.
func ParseFormat(s string) (Format, error) {
	for _, f := range Formats {
		if string(f) == strings.ToLower(strings.TrimSpace(s)) {
			return f, nil
		}
	}
	return "", fmt.Errorf("unknown format %q (have: %s)", s, FormatNames())
}

// Fail prints "tool: message" to stderr and exits 1 — the uniform
// command-line error path.
func Fail(tool, format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, tool+": "+format+"\n", args...)
	os.Exit(1)
}

// WriteJSON writes v as two-space-indented JSON. Reports that must be
// byte-identical across runs use this single encoder configuration.
//
// Non-finite floats (NaN, ±Inf) are encoded as null instead of making
// encoding/json abort the whole report: a single degenerate ratio in a
// roll-up (a degradation factor over a zero baseline, say) must not
// cost the operator every other number in the window. The sanitizing
// walk preserves struct field order and `json` tag semantics, so
// reports stay byte-identical with what the plain encoder produced.
func WriteJSON(w io.Writer, v interface{}) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sanitize(reflect.ValueOf(v)))
}

// WriteJSONLine writes v as one compact JSON line — the NDJSON
// event-stream convention the BENCH_* archives use, in the spirit of
// `go test -json`. It shares WriteJSON's non-finite sanitizing and
// field-order preservation, so the two encoders never disagree on a
// value.
func WriteJSONLine(w io.Writer, v interface{}) error {
	b, err := json.Marshal(sanitize(reflect.ValueOf(v)))
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// kv/obj carry a sanitized struct as an order-preserving JSON object:
// encoding/json would sort a map's keys, and report fields must stay
// in declaration order.
type kv struct {
	key string
	val interface{}
}

type obj []kv

func (o obj) MarshalJSON() ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteByte('{')
	for i, e := range o {
		if i > 0 {
			buf.WriteByte(',')
		}
		k, err := json.Marshal(e.key)
		if err != nil {
			return nil, err
		}
		buf.Write(k)
		buf.WriteByte(':')
		v, err := json.Marshal(e.val)
		if err != nil {
			return nil, err
		}
		buf.Write(v)
	}
	buf.WriteByte('}')
	return buf.Bytes(), nil
}

var (
	marshalerType     = reflect.TypeOf((*json.Marshaler)(nil)).Elem()
	textMarshalerType = reflect.TypeOf((*encoding.TextMarshaler)(nil)).Elem()
)

// sanitize rebuilds v as a tree encoding/json accepts: every
// non-finite float becomes nil (-> null), everything else keeps its
// value, struct field order, and tag-driven naming/omission. Types
// with their own MarshalJSON or MarshalText pass through untouched
// (their output is text, which cannot smuggle a non-finite float).
func sanitize(rv reflect.Value) interface{} {
	if !rv.IsValid() {
		return nil
	}
	if rv.Type().Implements(marshalerType) || rv.Type().Implements(textMarshalerType) {
		return rv.Interface()
	}
	switch rv.Kind() {
	case reflect.Float32, reflect.Float64:
		f := rv.Float()
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return nil
		}
		return rv.Interface()
	case reflect.Pointer, reflect.Interface:
		if rv.IsNil() {
			return nil
		}
		return sanitize(rv.Elem())
	case reflect.Struct:
		return sanitizeStruct(rv)
	case reflect.Map:
		if rv.IsNil() {
			return nil
		}
		m := make(map[string]interface{}, rv.Len())
		iter := rv.MapRange()
		for iter.Next() {
			m[fmt.Sprint(iter.Key().Interface())] = sanitize(iter.Value())
		}
		return m
	case reflect.Slice:
		if rv.IsNil() {
			return nil
		}
		fallthrough
	case reflect.Array:
		if rv.Type().Elem().Kind() == reflect.Uint8 {
			return rv.Interface() // []byte keeps base64 encoding
		}
		s := make([]interface{}, rv.Len())
		for i := range s {
			s[i] = sanitize(rv.Index(i))
		}
		return s
	default:
		return rv.Interface()
	}
}

// fieldEntry is one candidate JSON field gathered from a struct and
// its flattened embedded structs, carrying what encoding/json's
// dominant-field rule needs: embedding depth and whether the name
// came from a tag.
type fieldEntry struct {
	key    string
	val    func() interface{} // deferred: losers are never sanitized
	depth  int
	tagged bool
	omit   bool // omitempty and empty: dominates, but emits nothing
}

func sanitizeStruct(rv reflect.Value) interface{} {
	var entries []fieldEntry
	collectFields(rv, 0, &entries)

	// Resolve name conflicts with encoding/json's dominant-field rule:
	// the shallowest field wins; among equals, a single tagged field
	// wins; otherwise the name is dropped entirely. Dominance is a
	// property of the type, so an omitempty-omitted winner still
	// suppresses the losers; the winner emits at its own declaration
	// position, as encoding/json's byIndex ordering does.
	byKey := map[string][]int{}
	for i, e := range entries {
		byKey[e.key] = append(byKey[e.key], i)
	}
	winner := map[string]int{}
	for key, idxs := range byKey {
		minDepth := entries[idxs[0]].depth
		for _, i := range idxs[1:] {
			if d := entries[i].depth; d < minDepth {
				minDepth = d
			}
		}
		var cands, tagged []int
		for _, i := range idxs {
			if entries[i].depth != minDepth {
				continue
			}
			cands = append(cands, i)
			if entries[i].tagged {
				tagged = append(tagged, i)
			}
		}
		switch {
		case len(cands) == 1:
			winner[key] = cands[0]
		case len(tagged) == 1:
			winner[key] = tagged[0]
		default:
			winner[key] = -1 // unresolvable conflict: the name vanishes
		}
	}

	var out obj
	for i, e := range entries {
		if winner[e.key] != i || e.omit {
			continue
		}
		out = append(out, kv{e.key, e.val()})
	}
	return out
}

// collectFields gathers a struct's candidate JSON fields in
// declaration order (depth-first through untagged embedded structs,
// matching encoding/json's byIndex ordering).
func collectFields(rv reflect.Value, depth int, entries *[]fieldEntry) {
	t := rv.Type()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		tag := f.Tag.Get("json")
		// Only the bare "-" skips a field; `json:"-,"` names it "-".
		if tag == "-" {
			continue
		}
		name, opts, _ := strings.Cut(tag, ",")
		fv := rv.Field(i)
		// Untagged embedded structs flatten, as encoding/json promotes
		// their fields — through a non-nil pointer, and out of
		// unexported embedded struct types too (their exported fields
		// marshal; unexported embedded non-structs do not).
		if f.Anonymous && name == "" {
			target := fv
			if target.Kind() == reflect.Pointer {
				if !f.IsExported() {
					continue // json cannot reach through these either
				}
				if target.IsNil() {
					continue
				}
				target = target.Elem()
			}
			if target.Kind() == reflect.Struct {
				collectFields(target, depth+1, entries)
				continue
			}
		}
		if !f.IsExported() {
			continue
		}
		tagged := name != ""
		if name == "" {
			name = f.Name
		}
		quoted := strings.Contains(","+opts+",", ",string,")
		*entries = append(*entries, fieldEntry{
			key:    name,
			depth:  depth,
			tagged: tagged,
			omit:   strings.Contains(","+opts+",", ",omitempty,") && isEmptyValue(fv),
			val: func() interface{} {
				v := sanitize(fv)
				if quoted {
					v = quoteStringOption(v)
				}
				return v
			},
		})
	}
}

// quoteStringOption applies the json `,string` tag option: scalar
// values encode inside a JSON string, as encoding/json does. Non-null
// non-scalars (where encoding/json would error) pass through
// unchanged.
func quoteStringOption(v interface{}) interface{} {
	switch v.(type) {
	case nil:
		return v // a sanitized non-finite float stays null
	case string, bool,
		int, int8, int16, int32, int64,
		uint, uint8, uint16, uint32, uint64, uintptr,
		float32, float64:
		b, err := json.Marshal(v)
		if err != nil {
			return v
		}
		return string(b)
	default:
		return v
	}
}

// isEmptyValue mirrors encoding/json's omitempty test.
func isEmptyValue(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Array, reflect.Map, reflect.Slice, reflect.String:
		return v.Len() == 0
	case reflect.Bool:
		return !v.Bool()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return v.Int() == 0
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return v.Uint() == 0
	case reflect.Float32, reflect.Float64:
		return v.Float() == 0
	case reflect.Pointer, reflect.Interface:
		return v.IsNil()
	}
	return false
}

// CSVWriter is a thin wrapper over encoding/csv that writes each row
// as it arrives (reports stream to stdout). Callers format numbers
// themselves, so a report controls its own precision.
type CSVWriter struct {
	w *csv.Writer
}

// NewCSV starts a CSV document on w with a header row.
func NewCSV(w io.Writer, columns ...string) *CSVWriter {
	c := &CSVWriter{w: csv.NewWriter(w)}
	c.Row(columns...)
	return c
}

// Row writes one record. Write errors are ignored, as they were when
// the rows went straight to stdout via fmt.
func (c *CSVWriter) Row(fields ...string) {
	_ = c.w.Write(fields)
	c.w.Flush()
}
