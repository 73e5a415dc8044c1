package scenario

import (
	"runtime"
	"testing"
	"unsafe"

	"qvr/internal/fleet"
)

// timelineBytesPerSession is the allocation budget for one session of
// a timeline: the phases stream their populations into the fleet (no
// spec slice per phase) and keep no per-session results, so what is
// left is each phase's roll-up plus per-run set-up.
const timelineBytesPerSession = 150

// TestTimelineBytesPerSession runs a timeline of 2,000 short exact
// sessions and bounds the bytes it allocates per session once a first
// run has warmed the session and generator pools.
func TestTimelineBytesPerSession(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets depend on sync.Pool, which -race makes lossy")
	}
	sc, err := ParseString(`
[scenario]
name   = timeline-bytes
mix    = mixed
frames = 2
warmup = 1

[phase ramp]
duration = 60
sessions = 200

[phase peak]
duration = 120
sessions = 900

[phase sustain]
duration = 120
sessions = 900
`)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Workers: 2}
	if _, err := Run(sc, opt); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r, err := Run(sc, opt)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	sessions := 0
	for _, p := range r.Phases {
		if kept := len(p.Fleet.Sessions); kept != 0 {
			t.Fatalf("phase %s kept %d of %d sessions", p.Phase.Name, kept, p.Summary.Summary.Sessions)
		}
		sessions += p.Summary.Summary.Sessions
	}
	if sessions != 2000 {
		t.Fatalf("ran %d sessions, want 2000", sessions)
	}
	perSession := float64(after.TotalAlloc-before.TotalAlloc) / float64(sessions)
	t.Logf("%.0f B allocated per session", perSession)
	if perSession >= timelineBytesPerSession {
		t.Errorf("%.0f B allocated per session, budget %d", perSession, timelineBytesPerSession)
	}
}

// TestContendedPointBytesPerSession runs single points whose
// populations are contended — placed on an edge grid, admitted to a
// shared cluster that drops, and split across shared cells — and
// bounds the bytes each allocates per session below one SessionSpec.
// Admission and placement decide by index and each worker binds the
// spec it mints, so a point that copied its population into a spec
// slice (one SessionSpec per session at least) fails the bound.
func TestContendedPointBytesPerSession(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets depend on sync.Pool, which -race makes lossy")
	}
	const n = 400
	budget := float64(unsafe.Sizeof(fleet.SessionSpec{}))
	for _, tc := range []struct{ name, text string }{
		{"grid", `
[scenario]
name      = grid-bytes
mix       = mixed
placement = score
frames    = 2
warmup    = 1

[cluster us-west]
gpus   = 20
rtt    = 40
rtt.us = 8

[cluster eu-central]
gpus   = 20
rtt    = 40
rtt.eu = 10

[phase steady]
duration = 60
sessions = 8
`},
		{"admission-cells", `
[scenario]
name          = admission-bytes
mix           = mixed
gpus          = 40
cell-capacity = 50
frames        = 2
warmup        = 1

[phase steady]
duration = 60
sessions = 8
`},
	} {
		sc, err := ParseString(tc.text)
		if err != nil {
			t.Fatal(err)
		}
		opt := Options{Workers: 2}
		if _, err := RunPoint(sc, n, opt); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		pt, err := RunPoint(sc, n, opt)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		s := pt.Summary
		if s.Sessions+s.Dropped != n || s.FailedOver+s.Dropped == 0 {
			t.Fatalf("%s: %d run, %d dropped, %d failed over: want %d sessions under contention",
				tc.name, s.Sessions, s.Dropped, s.FailedOver, n)
		}
		perSession := float64(after.TotalAlloc-before.TotalAlloc) / n
		t.Logf("%s: %.0f B allocated per session", tc.name, perSession)
		if perSession >= budget {
			t.Errorf("%s: %.0f B allocated per session, budget %.0f (one SessionSpec)", tc.name, perSession, budget)
		}
	}
}
