package scenario

import (
	"runtime"
	"testing"
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
