package faultfs

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// The record format both durable files share, the cache snapshot and the
// session journal, little-endian throughout:
//
//	header = magic | u64 field*
//	frame  = u32 payload length | u32 CRC-32 (IEEE) of payload | payload
//
// Each file picks its magic and header fields, and its own policy for a
// bad frame; the codec only reports what it found.

// maxFrameLen rejects absurd frame lengths (a torn or rotted length field)
// before reading on.
const maxFrameLen = 64 << 20

// AppendHeader appends magic and then each field to dst.
func AppendHeader(dst []byte, magic string, fields ...uint64) []byte {
	dst = append(dst, magic...)
	for _, f := range fields {
		dst = binary.LittleEndian.AppendUint64(dst, f)
	}
	return dst
}

// ReadHeader reads a header of n fields from r, checks its magic, and
// returns the fields.
func ReadHeader(r io.Reader, magic string, n int) ([]uint64, error) {
	buf := make([]byte, len(magic)+8*n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("short header: %w", err)
	}
	if got := string(buf[:len(magic)]); got != magic {
		return nil, fmt.Errorf("bad magic %q", got)
	}
	fields := make([]uint64, n)
	for k := range fields {
		fields[k] = binary.LittleEndian.Uint64(buf[len(magic)+8*k:])
	}
	return fields, nil
}

// AppendFrame appends a frame holding payload to dst. Payloads must not be
// empty: a zero length reads back as a tear, so zeroed bytes never pass
// for frames.
func AppendFrame(dst, payload []byte) []byte {
	dst = slices.Grow(dst, 8+len(payload))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...)
}

// ReadFrame reads the next frame from r. An error means no whole frame was
// there: io.EOF at a clean end of input, any other error a tear (short
// length or payload, zero or absurd length), past which frame boundaries
// are lost. Otherwise intact reports whether the payload matches its CRC;
// a mismatched frame was still read whole, so the next boundary holds.
func ReadFrame(r io.Reader) (payload []byte, intact bool, err error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, false, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n == 0 || n > maxFrameLen {
		return nil, false, fmt.Errorf("frame length %d out of range", n)
	}
	// A limited read costs what the input holds, not what a corrupt length
	// claims.
	if payload, err = io.ReadAll(io.LimitReader(r, int64(n))); err == nil && len(payload) < int(n) {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return nil, false, err
	}
	return payload, crc32.ChecksumIEEE(payload) == binary.LittleEndian.Uint32(hdr[4:]), nil
}
