package daemon

import (
	"net/http"
	"net/http/httptest"
	"regexp"
	"testing"
)

// replyMask blanks the two fields of a reply that legitimately differ from
// run to run: the solve timing and the session ID's random prefix.
var replyMask = regexp.MustCompile(`("elapsed_ms": )[^,\n]+|("session_id": )"[^"]*"`)

func maskReply(raw []byte) string {
	return string(replyMask.ReplaceAll(raw, []byte(`${1}${2}"*"`)))
}

// TestReplyBytes pins the exact bytes sectord writes for /solve,
// /solve/batch (one valid and one invalid item) and POST /session on one
// fixed instance, so a change to how replies are declared or encoded
// cannot move a field, a tag or the indentation unnoticed.
func TestReplyBytes(t *testing.T) {
	ts := httptest.NewServer(NewServer(Config{}).Handler())
	defer ts.Close()
	bad := map[string]any{
		"variant":   0,
		"customers": []any{map[string]any{"id": 0, "theta": 0, "r": -2, "demand": 1}},
		"antennas":  []any{},
	}
	for _, tc := range []struct {
		route, path string
		body        []byte
		want        string
	}{
		// The batch's valid item is the /solve instance, so its cache
		// provenance is a hit.
		{"solve", "/solve", solveBody(t, "greedy", sectorsInstance(), nil), wantSolveReply},
		{"batch", "/solve/batch", batchBody(t, "greedy", []any{sectorsInstance(), bad}, nil), wantBatchReply},
		{"session", "/session", sessionCreateBody(t, "greedy", sectorsInstance(), 1), wantSessionReply},
	} {
		resp, raw := doJSON(t, ts.Client(), http.MethodPost, ts.URL+tc.path, tc.body)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d\n%s", tc.route, resp.StatusCode, raw)
			continue
		}
		if got := maskReply(raw); got != tc.want {
			t.Errorf("%s reply bytes changed:\ngot:\n%s\nwant:\n%s", tc.route, got, tc.want)
		}
	}
}

const wantSolveReply = `{
  "solver": "greedy",
  "algorithm": "greedy",
  "profit": 3,
  "upper_bound": 5,
  "orientation": [
    0.1,
    0.1
  ],
  "owner": [
    0,
    0,
    1,
    -1,
    -1
  ],
  "elapsed_ms": "*"
}
`

const wantBatchReply = `{
  "solver": "greedy",
  "count": 2,
  "ok": 1,
  "failed": 1,
  "degraded": 0,
  "elapsed_ms": "*",
  "items": [
    {
      "index": 0,
      "cache": "hit",
      "solver": "greedy",
      "algorithm": "greedy",
      "profit": 3,
      "upper_bound": 5,
      "orientation": [
        0.1,
        0.1
      ],
      "owner": [
        0,
        0,
        1,
        -1,
        -1
      ],
      "elapsed_ms": "*"
    },
    {
      "index": 1,
      "error": "invalid instance: customer 0: invalid radius -2"
    }
  ]
}
`

const wantSessionReply = `{
  "session_id": "*",
  "stats": {
    "solves": 1,
    "deltas": 0,
    "sweeps_kept": 0,
    "sweeps_dropped": 0,
    "steps_reused": 0,
    "steps_resolved": 2
  },
  "solver": "greedy",
  "algorithm": "greedy",
  "profit": 3,
  "upper_bound": 5,
  "orientation": [
    0.1,
    0.1
  ],
  "owner": [
    0,
    0,
    1,
    -1,
    -1
  ],
  "elapsed_ms": "*"
}
`
