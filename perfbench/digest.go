package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// wallKeys are the report fields that carry host wall-clock time or
// figures derived from it (the same set the repository's determinism
// smokes exclude). Everything else a repetition reports is simulated
// and must repeat byte for byte.
var wallKeys = map[string]bool{
	"wall_seconds":     true,
	"sessions_per_sec": true,
	"speedup":          true,
	"efficiency":       true,
}

// stripWall removes every wall-clock field from a decoded JSON value,
// at any depth.
func stripWall(v any) any {
	switch x := v.(type) {
	case map[string]any:
		for k, e := range x {
			if wallKeys[k] {
				delete(x, k)
				continue
			}
			x[k] = stripWall(e)
		}
	case []any:
		for i, e := range x {
			x[i] = stripWall(e)
		}
	}
	return v
}

// digest is the SHA-256 of a report's JSON with wall-clock fields
// stripped. Map keys are re-encoded in sorted order, so the digest
// depends only on the simulated values.
func digest(report any) (string, error) {
	raw, err := json.Marshal(report)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	var tree any
	if err := json.Unmarshal(raw, &tree); err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	canon, err := json.Marshal(stripWall(tree))
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	sum := sha256.Sum256(canon)
	return hex.EncodeToString(sum[:]), nil
}
