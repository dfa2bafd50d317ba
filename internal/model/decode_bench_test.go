package model_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"sectorpack/internal/gen"
	"sectorpack/internal/model"
)

// BenchmarkDecodeInstance decodes the two body shapes the benchmark's
// workloads send: a /solve body the size of a solve-hot request (n=95,
// m=6) through DecodeSolveRequest, and the 100k-churn tier file through
// ReadJSON and, as sectorpack loads it, through LoadFile. Each also runs
// the encoding/json decode it replaces, which canonical bodies no longer
// reach.
func BenchmarkDecodeInstance(b *testing.B) {
	hot, err := gen.Generate(gen.Config{Family: gen.Uniform, Seed: 1, N: 95, M: 6})
	if err != nil {
		b.Fatal(err)
	}
	hotBody, err := json.Marshal(model.SolveRequest{FormatVersion: 1, Instance: hot})
	if err != nil {
		b.Fatal(err)
	}
	cfg, err := gen.Tier("100k-churn")
	if err != nil {
		b.Fatal(err)
	}
	tier, err := gen.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var tierBody bytes.Buffer
	if err := model.WriteJSON(&tierBody, tier); err != nil {
		b.Fatal(err)
	}

	run := func(name string, body []byte, decode func([]byte) error) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				if err := decode(body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	encodingJSON := func(v any) func([]byte) error {
		return func(body []byte) error {
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			return dec.Decode(v)
		}
	}
	run("solve-hot/canonical", hotBody, func(body []byte) error {
		_, err := model.DecodeSolveRequest(bytes.NewReader(body))
		return err
	})
	run("solve-hot/encoding-json", hotBody, encodingJSON(new(model.SolveRequest)))
	run("100k-churn/canonical", tierBody.Bytes(), func(body []byte) error {
		_, err := model.ReadJSON(bytes.NewReader(body))
		return err
	})
	path := filepath.Join(b.TempDir(), "100k-churn.json")
	if err := os.WriteFile(path, tierBody.Bytes(), 0o644); err != nil {
		b.Fatal(err)
	}
	run("100k-churn/file", tierBody.Bytes(), func([]byte) error {
		_, err := model.LoadFile(path)
		return err
	})
	run("100k-churn/encoding-json", tierBody.Bytes(), func(body []byte) error {
		var env struct {
			FormatVersion int             `json:"format_version"`
			Instance      *model.Instance `json:"instance"`
		}
		return encodingJSON(&env)(body)
	})
}
