package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
)

// goldenEvalDigest is the SHA-256 of the JSON of Fig12, Fig13 and
// Table4 at goldenEvalOptions. It pins every simulated statistic of the
// paper evaluation, so a change meant only to make the simulator
// faster (or cleaner) must leave it untouched.
//
// Re-record it only in a change that alters the simulated science on
// purpose and says so in CHANGES.md; never to make a refactor or a
// speedup pass.
const goldenEvalDigest = "4aca421900c58f2d31fd8ca429e2b258f16b2cd815a1bdeb143ab533b8c49629"

var goldenEvalOptions = Options{Frames: 20, Warmup: 5, Seed: 3}

func TestEvaluationGoldenDigest(t *testing.T) {
	o := goldenEvalOptions
	raw, err := json.Marshal([]any{Fig12(o), Fig13(o), Table4(o)})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	if got := hex.EncodeToString(sum[:]); got != goldenEvalDigest {
		t.Errorf("evaluation digest = %s, want %s", got, goldenEvalDigest)
	}
}

// goldenExperimentDigests are the SHA-256 digests of the JSON of the
// pool-run experiments outside goldenEvalDigest, each at
// goldenEvalOptions (Fig14 keeps its own 300 frames and no warmup).
// Like goldenEvalDigest, they move only with a deliberate change to
// the simulated science.
var goldenExperimentDigests = []struct {
	name   string
	run    func(Options) any
	digest string
}{
	{"Fig3", func(o Options) any { return Fig3(o) }, "5a740efb91c3b6e066caedb4f24ad57a67bb062350324d9effaac653d233f6f2"},
	{"Table1", func(o Options) any { return Table1(o) }, "e75de018759df5429728933854151221b4c356093329f0f14d6d2dd53afcc17c"},
	{"Fig14", func(o Options) any { return Fig14(o) }, "b51e0183bddc7712d049b0d9ee8607b5486d442a4a41db4600561566028b7d2a"},
	{"Fig15", func(o Options) any { return Fig15(o) }, "51b80cdfc2e0cb29a7f5fef029db36aed7c4058df1b5e8cf6436844448072ee1"},
}

func TestExperimentGoldenDigests(t *testing.T) {
	for _, g := range goldenExperimentDigests {
		t.Run(g.name, func(t *testing.T) {
			raw, err := json.Marshal(g.run(goldenEvalOptions))
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(raw)
			if got := hex.EncodeToString(sum[:]); got != g.digest {
				t.Errorf("%s digest = %s, want %s", g.name, got, g.digest)
			}
		})
	}
}
