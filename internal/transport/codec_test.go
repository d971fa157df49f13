package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"runtime"
	"testing"
)

// payload is one frame's payload, and whether it is a response's.
type payload struct {
	name string
	resp bool
	p    []byte
}

// goldenPayloads is every golden frame's payload, requests then responses.
func goldenPayloads(t *testing.T) []payload {
	var out []payload
	for _, g := range goldenRequests() {
		out = append(out, payload{"request " + g.name, false, appendRequest(nil, &g.frame)[4:]})
	}
	for _, g := range goldenResponses(t) {
		out = append(out, payload{"response " + g.name, true, appendResponse(nil, &g.frame)[4:]})
	}
	return out
}

func (c payload) decode() error {
	if c.resp {
		_, err := decodeResponse(c.p)
		return err
	}
	_, err := decodeRequest(c.p)
	return err
}

// readAll reads a stream as a peer does — preamble, then frames — and
// returns the first error.
func readAll(raw []byte) error {
	r := bufio.NewReader(bytes.NewReader(raw))
	if err := readPreamble(r); err != nil {
		return err
	}
	for {
		if _, err := readFrame(r, nil); err != nil {
			return err
		}
	}
}

// allocated returns the fewest bytes f allocated over three runs.
func allocated(f func()) uint64 {
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestDecodeRefusesMalformedFrames: frame bytes come from the network, so
// each of these ends in an error, never a panic or an allocation sized by
// a count the bytes cannot hold. FuzzDecodeFrame explores beyond them.
func TestDecodeRefusesMalformedFrames(t *testing.T) {
	header := func(o op) []byte { // a request header: seq 1, op, no deadline
		return binary.LittleEndian.AppendUint64([]byte{1, byte(o)}, 0)
	}
	searchHeader := func() []byte {
		return binary.AppendVarint(binary.LittleEndian.AppendUint64(header(opSearch), math.Float64bits(0.9)), 10)
	}
	uv := binary.AppendUvarint

	t.Run("every prefix of every golden frame", func(t *testing.T) {
		for _, g := range goldenPayloads(t) {
			frame := binary.LittleEndian.AppendUint32(nil, uint32(len(g.p)))
			frame = append(frame, g.p...)
			for i := range frame {
				stream := append(appendPreamble(nil), frame[:i]...)
				if err := readAll(stream); i > 0 && err != io.ErrUnexpectedEOF || i == 0 && err != io.EOF {
					t.Errorf("%s cut to %d of %d bytes reads as %v", g.name, i, len(frame), err)
				}
			}
			for i := range g.p {
				cut := payload{g.name, g.resp, g.p[:i]}
				if err := cut.decode(); !errors.Is(err, errFrame) {
					t.Errorf("%s payload cut to %d of %d bytes decodes, error %v", g.name, i, len(g.p), err)
				}
			}
		}
	})

	t.Run("a count larger than the bytes left", func(t *testing.T) {
		for _, c := range []payload{
			{"nine vectors in ten bytes", false, append(uv(searchHeader(), 9), 1, 1, 1, 0, 0, 0, 0, 0, 0x80, 0x3f)},
			{"more indexes than bytes", false, append(uv(header(opInsert), 1), 9, 1, 1, 0, 0, 0, 0, 0, 0x80, 0x3f)},
			{"more values than bytes", false, append(uv(header(opInsert), 1), 1, 9, 1, 0, 0, 0, 0, 0, 0x80, 0x3f)},
			{"ids", true, uv([]byte{1, byte(opInsert), byte(codeOK)}, 5)},
			{"answer lists", true, append(uv([]byte{1, byte(opSearch), byte(codeOK)}, 4), 0, 0)},
			{"neighbors", true, append(uv([]byte{1, byte(opSearch), byte(codeOK)}, 1), 2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)},
			{"error message", true, append(uv([]byte{1, byte(opSearch), byte(codeError)}, 40), "short"...)},
			{"doc vectors", true, append(uv([]byte{1, byte(opDoc), byte(codeOK), 1}, 2), 0, 0)},
		} {
			if err := c.decode(); !errors.Is(err, errFrame) {
				t.Errorf("%s: decodes, error %v", c.name, err)
			}
		}
	})

	t.Run("a length past the frame ceiling", func(t *testing.T) {
		// Only the length prefix is there: the reader must refuse it before
		// it waits for, or allocates, a payload.
		stream := binary.LittleEndian.AppendUint32(appendPreamble(nil), maxFrame+1)
		if err := readAll(stream); !errors.Is(err, errFrame) {
			t.Fatalf("a %d-byte length reads as %v", maxFrame+1, err)
		}
	})

	t.Run("trailing bytes", func(t *testing.T) {
		for _, g := range goldenPayloads(t) {
			if g.name == "request queryBatch" || g.name == "request queryTopK" {
				continue // a retired op's body is never read
			}
			long := payload{g.name, g.resp, append(g.p, 0)}
			if err := long.decode(); !errors.Is(err, errFrame) {
				t.Errorf("%s with a trailing byte decodes, error %v", g.name, err)
			}
		}
	})

	t.Run("a wrong preamble", func(t *testing.T) {
		for _, p := range []string{"PLSH\x00", "PLSH\x02", "PLSH\x04", "plsh\x03", "\x1d\x00\x00\x00\x01"} {
			if err := readAll([]byte(p)); !errors.Is(err, ErrPreamble) {
				t.Errorf("preamble %q reads as %v, want ErrPreamble", p, err)
			}
		}
		if err := readAll([]byte("PLS")); err != io.ErrUnexpectedEOF {
			t.Errorf("a cut preamble reads as %v", err)
		}
	})

	t.Run("a small frame claiming 2^32 items allocates nothing for them", func(t *testing.T) {
		pad := func(p []byte) []byte { return append(p, make([]byte, 64-len(p))...) }
		for _, c := range []payload{
			{"search vectors", false, pad(uv(searchHeader(), 1<<32))},
			{"insert vectors", false, pad(uv(header(opInsert), 1<<32))},
			{"one vector's indexes", false, pad(uv(uv(header(opInsert), 1), 1<<32))},
			{"ids", true, pad(uv([]byte{1, byte(opInsert), byte(codeOK)}, 1<<32))},
			{"answer lists", true, pad(uv([]byte{1, byte(opSearch), byte(codeOK)}, 1<<32))},
		} {
			var err error
			if n := allocated(func() { err = c.decode() }); n >= 4096 {
				t.Errorf("%s: a %d-byte frame allocated %d bytes", c.name, len(c.p), n)
			}
			if !errors.Is(err, errFrame) {
				t.Errorf("%s: decodes, error %v", c.name, err)
			}
		}
	})
}
