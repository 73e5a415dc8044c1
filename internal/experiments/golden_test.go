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
