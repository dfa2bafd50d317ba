package model

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"sectorpack/internal/faultfs"
)

// instanceJSON is the wire form: Range uses 0 to encode "unbounded" so the
// JSON stays valid (math.Inf cannot be marshalled).
//
// The Go structs already use the <=0 ⇒ unbounded convention, so the wire
// form is the struct itself; this indirection exists to keep a stable,
// versioned envelope around it.
type instanceJSON struct {
	FormatVersion int       `json:"format_version"`
	Instance      *Instance `json:"instance"`
}

const formatVersion = 1

// WriteJSON serializes the instance to w with indentation, wrapped in a
// versioned envelope.
func WriteJSON(w io.Writer, in *Instance) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(instanceJSON{FormatVersion: formatVersion, Instance: in})
}

// ReadJSON parses an instance previously written by WriteJSON and validates
// it. It reads r to its end.
func ReadJSON(r io.Reader) (*Instance, error) {
	var body bytes.Buffer
	_, err := body.ReadFrom(r)
	return readInstance(body.Bytes(), err)
}

// readInstance decodes an instance envelope from the bytes read and the
// error that ended the read.
func readInstance(body []byte, readErr error) (*Instance, error) {
	var env instanceJSON
	err := decode(body, readErr, &env, func(body []byte) bool {
		fast, ok := decodeEnvelope(body, fileFields)
		env = instanceJSON{FormatVersion: fast.version, Instance: fast.instance}
		return ok
	})
	if err != nil {
		return nil, fmt.Errorf("decode instance: %w", err)
	}
	if env.FormatVersion != formatVersion {
		return nil, fmt.Errorf("unsupported instance format version %d (want %d)", env.FormatVersion, formatVersion)
	}
	if env.Instance == nil {
		return nil, fmt.Errorf("instance envelope missing body")
	}
	env.Instance.Normalize()
	if err := env.Instance.Validate(); err != nil {
		return nil, fmt.Errorf("invalid instance: %w", err)
	}
	return env.Instance, nil
}

// SaveFile writes the instance to path atomically and durably: the JSON is
// written to a temporary file in the same directory, fsynced, renamed over
// the destination, and the parent directory is fsynced (a rename is not
// durable across power loss until the directory entry itself is on disk).
// A crash, a full disk, or an encoding error mid-write can therefore never
// leave a torn, unparseable file at path — the destination either keeps its
// previous content or holds the complete new instance.
func SaveFile(path string, in *Instance) error {
	return writeFileAtomic(path, func(w io.Writer) error { return WriteJSON(w, in) })
}

// writeFileAtomic is faultfs.WriteFileAtomic on the real filesystem — the
// temp+fsync+rename+dir-fsync discipline every persistence path in the
// repository shares (the cache snapshot and session journal call the
// faultfs helper directly so tests can inject faults into their writes).
func writeFileAtomic(path string, write func(io.Writer) error) error {
	return faultfs.WriteFileAtomic(faultfs.OS, path, write)
}

// LoadFile reads an instance from path.
func LoadFile(path string) (*Instance, error) {
	body, readErr, err := readFile(path)
	if err != nil {
		return nil, err
	}
	return readInstance(body, readErr)
}

// batchJSON is the multi-instance wire form used by `sectorpack -batch`,
// `sectorgen -count`, and the sectord /solve/batch endpoint.
type batchJSON struct {
	FormatVersion int         `json:"format_version"`
	Instances     []*Instance `json:"instances"`
}

// WriteBatchJSON serializes a batch of instances to w with indentation,
// wrapped in the versioned envelope.
func WriteBatchJSON(w io.Writer, ins []*Instance) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(batchJSON{FormatVersion: formatVersion, Instances: ins})
}

// ReadBatchJSON parses a batch envelope written by WriteBatchJSON,
// normalizing and validating every instance. Item errors name the failing
// index. It reads r to its end.
func ReadBatchJSON(r io.Reader) ([]*Instance, error) {
	var body bytes.Buffer
	_, err := body.ReadFrom(r)
	return readBatch(body.Bytes(), err)
}

// readBatch is readInstance for a batch envelope.
func readBatch(body []byte, readErr error) ([]*Instance, error) {
	var env batchJSON
	err := decode(body, readErr, &env, func(body []byte) bool {
		fast, ok := decodeEnvelope(body, batchFileFields)
		env = batchJSON{FormatVersion: fast.version, Instances: fast.instances}
		return ok
	})
	if err != nil {
		return nil, fmt.Errorf("decode batch: %w", err)
	}
	if env.FormatVersion != formatVersion {
		return nil, fmt.Errorf("unsupported batch format version %d (want %d)", env.FormatVersion, formatVersion)
	}
	if len(env.Instances) == 0 {
		return nil, fmt.Errorf("batch envelope has no instances")
	}
	for i, in := range env.Instances {
		if in == nil {
			return nil, fmt.Errorf("batch instance %d is null", i)
		}
		in.Normalize()
		if err := in.Validate(); err != nil {
			return nil, fmt.Errorf("invalid batch instance %d: %w", i, err)
		}
	}
	return env.Instances, nil
}

// SaveBatchFile writes a batch of instances to path with the same
// atomicity guarantee as SaveFile.
func SaveBatchFile(path string, ins []*Instance) error {
	return writeFileAtomic(path, func(w io.Writer) error { return WriteBatchJSON(w, ins) })
}

// LoadBatchFile reads a batch of instances from path.
func LoadBatchFile(path string) ([]*Instance, error) {
	body, readErr, err := readFile(path)
	if err != nil {
		return nil, err
	}
	return readBatch(body, readErr)
}
