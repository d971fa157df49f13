package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"plsh/internal/codec"
	"plsh/internal/core"
	"plsh/internal/node"
	"plsh/internal/sparse"
)

// The frame codec. Each direction of a connection opens with a preamble —
// the magic bytes and the wire revision — and then carries frames: a
// 4-byte little-endian payload length, then the payload, read through
// internal/codec's Decoder and laid out in its integers: fixed-width
// little-endian or varints, floats as their IEEE bits, so answers cross bit
// for bit, and a length or count before what it counts.
//
//	request  = seq uvarint, op u8, deadline u64 (Unix ns, 0 = none), body:
//	           opInsert             vectors
//	           opSearch             radius f64, k varint, vectors
//	           opDelete, opDoc      id u32
//	           other ops            nothing; an unknown op's body is skipped
//	response = seq uvarint, op u8 (the request's), code u8, body:
//	           codeError            message (uvarint length, bytes)
//	           codeOK, opInsert     n uvarint, n × id u32
//	           codeOK, opSearch     n uvarint, n × list length uvarint,
//	                                every neighbor as id u32, dist f64
//	           codeOK, opDoc        known u8, vectors holding one vector
//	           codeOK, opStats      node.Stats, field by field (appendStats)
//	           otherwise            nothing
//	vectors  = internal/codec's vectors block, the journal's too
//
// Decoding checks every length and count against the bytes left before it
// allocates, refuses trailing bytes, and copies everything it returns out
// of the frame, so a caller may reuse the frame buffer at once.

// wireVersion is the one wire revision this binary speaks. It rides in the
// preamble, and a connection whose peer declares another is closed before
// a frame is read, so no frame carries a revision of its own.
const wireVersion = 3

// wireMagic opens the preamble, ahead of the version byte.
const wireMagic = "PLSH"

const preambleLen = len(wireMagic) + 1

// maxFrame bounds a frame's payload. A reader checks the length prefix
// against it before reading a byte of the payload, and a sender refuses to
// build a frame past it. A 1 000-document insert is ~80 KB.
const maxFrame = 64 << 20

// keepBuf is the largest frame buffer a connection keeps for the next
// frame; a bigger one is dropped once its frame is done.
const keepBuf = 1 << 20

// ErrPreamble reports a peer whose connection does not open with this
// binary's magic and wire revision: a gob peer of an older binary, a peer
// of another revision, or noise. The connection is closed.
var ErrPreamble = errors.New("transport: peer does not speak this wire revision")

// errFrame wraps every frame the codec refuses to read.
var errFrame = errors.New("transport: malformed frame")

func appendPreamble(b []byte) []byte {
	return append(append(b, wireMagic...), wireVersion)
}

// readPreamble reads the peer's preamble and checks it. A peer that closes
// before sending a byte reads as io.EOF.
func readPreamble(r *bufio.Reader) error {
	p, err := r.Peek(preambleLen)
	if err != nil {
		if err == io.EOF && len(p) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	defer r.Discard(preambleLen)
	if string(p[:len(wireMagic)]) != wireMagic {
		return fmt.Errorf("%w: it opened with %q", ErrPreamble, p)
	}
	if v := p[len(wireMagic)]; v != wireVersion {
		return fmt.Errorf("%w: peer speaks wire v%d, this binary v%d", ErrPreamble, v, wireVersion)
	}
	return nil
}

// readFrame reads one frame and returns its payload, in buf when it fits.
// The length is checked against maxFrame before the payload is read. A
// clean close between frames reads as io.EOF.
func readFrame(r *bufio.Reader, buf []byte) ([]byte, error) {
	h, err := r.Peek(4)
	if err != nil {
		if err == io.EOF && len(h) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	n := binary.LittleEndian.Uint32(h)
	r.Discard(4)
	if n > maxFrame {
		return nil, fmt.Errorf("%w: %d-byte frame past the %d-byte ceiling", errFrame, n, maxFrame)
	}
	if int(n) > cap(buf) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return buf, nil
}

// keep returns buf for reuse by the next frame, or nil when it is too big
// to hold on to.
func keep(buf []byte) []byte {
	if cap(buf) > keepBuf {
		return nil
	}
	return buf[:0]
}

// beginFrame reserves the length prefix of a frame whose payload is at
// most bound bytes; endFrame fills it in.
func beginFrame(b []byte, bound int) ([]byte, int) {
	b = slices.Grow(b, 4+bound)
	return append(b, 0, 0, 0, 0), len(b)
}

func endFrame(b []byte, start int) []byte {
	binary.LittleEndian.PutUint32(b[start:], uint32(len(b)-start-4))
	return b
}

const (
	maxVarint = binary.MaxVarintLen64
	headerMax = maxVarint + 1 + 8 // the larger header: a request's
)

// requestBound is an upper bound on req's payload length.
func requestBound(req *request) int {
	return headerMax + 8 + maxVarint + 4 + codec.VectorsBound(req.Vectors)
}

// appendRequest appends req's frame to b.
func appendRequest(b []byte, req *request) []byte {
	b, start := beginFrame(b, requestBound(req))
	b = binary.AppendUvarint(b, req.Seq)
	b = append(b, byte(req.Op))
	b = binary.LittleEndian.AppendUint64(b, uint64(req.Deadline))
	switch req.Op {
	case opInsert:
		b = codec.AppendVectors(b, req.Vectors)
	case opSearch:
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(req.Params.Radius))
		b = binary.AppendVarint(b, int64(req.Params.K))
		b = codec.AppendVectors(b, req.Vectors)
	case opDelete, opDoc:
		b = binary.LittleEndian.AppendUint32(b, req.ID)
	}
	return endFrame(b, start)
}

// checkSize refuses a request whose frame may be past maxFrame.
func checkSize(req *request) error {
	if n := requestBound(req); n > maxFrame {
		return fmt.Errorf("transport: a %d-vector frame may take %d bytes, past the %d-byte frame ceiling",
			len(req.Vectors), n, maxFrame)
	}
	return nil
}

// responseBound is an upper bound on resp's payload length: the header
// and every payload a response can carry, though it carries one at most.
func responseBound(resp *response) int {
	n := headerMax + maxVarint + len(resp.Err) + // codeError
		maxVarint + 4*len(resp.IDs) + // opInsert
		1 + codec.VectorsBound([]sparse.Vector{resp.Doc}) + // opDoc
		statsFields*maxVarint + len(resp.Stats.PersistErr) + // opStats
		maxVarint // opSearch: the list count, then each list
	for _, l := range resp.Results {
		n += maxVarint + 12*len(l)
	}
	return n
}

// appendResponse appends resp's frame to b.
func appendResponse(b []byte, resp *response) []byte {
	b, start := beginFrame(b, responseBound(resp))
	b = binary.AppendUvarint(b, resp.Seq)
	b = append(b, byte(resp.Op), byte(resp.Code))
	switch {
	case resp.Code == codeError:
		b = codec.AppendString(b, resp.Err)
	case resp.Code != codeOK:
	case resp.Op == opInsert:
		b = binary.AppendUvarint(b, uint64(len(resp.IDs)))
		b = codec.AppendWords(b, resp.IDs)
	case resp.Op == opSearch:
		b = binary.AppendUvarint(b, uint64(len(resp.Results)))
		for _, l := range resp.Results {
			b = binary.AppendUvarint(b, uint64(len(l)))
		}
		for _, l := range resp.Results {
			for _, nb := range l {
				b = binary.LittleEndian.AppendUint32(b, nb.ID)
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(nb.Dist))
			}
		}
	case resp.Op == opDoc:
		b = append(b, boolByte(resp.Known))
		b = codec.AppendVectors(b, []sparse.Vector{resp.Doc})
	case resp.Op == opStats:
		b = appendStats(b, &resp.Stats)
	}
	return endFrame(b, start)
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// statsFields is the number of node.Stats fields appendStats writes.
const statsFields = 20

// appendStats writes every node.Stats field in declaration order. A field
// appended to node.Stats needs a line here and in decodeStats, or
// TestStatsSurviveCodec fails.
func appendStats(b []byte, s *node.Stats) []byte {
	for _, x := range [...]int64{
		int64(s.StaticLen), int64(s.DeltaLen), int64(s.Capacity), int64(s.Deleted), int64(s.Merges),
	} {
		b = binary.AppendVarint(b, x)
	}
	b = append(b, boolByte(s.MergeInFlight))
	for _, x := range [...]int64{
		int64(s.MergePendingRows), int64(s.LastMergeDur), s.TotalMergeNS, s.InsertNS, s.MemoryBytes,
	} {
		b = binary.AppendVarint(b, x)
	}
	b = codec.AppendString(b, s.PersistErr)
	for _, x := range [...]uint64{s.SearchesServed, s.InsertsServed, s.DeletesServed} {
		b = binary.AppendUvarint(b, x)
	}
	for _, x := range [...]int64{
		s.WALAppendP50NS, s.WALAppendP99NS, s.WALFsyncP50NS, s.WALFsyncP99NS, s.FamilyBytes,
	} {
		b = binary.AppendVarint(b, x)
	}
	return b
}

// decodeResults reads answer lists carved from one []core.Neighbor.
func decodeResults(d *codec.Decoder) [][]core.Neighbor {
	n := d.Count(1, "answer lists")
	if n == 0 {
		return nil
	}
	lens := *d
	total := 0
	for range n {
		total += d.Count(12, "neighbors")
	}
	raw := d.Take(12*total, "neighbors")
	if d.Err() != nil {
		return nil
	}
	res := make([][]core.Neighbor, n)
	arena := make([]core.Neighbor, total)
	for i := range arena {
		p := raw[12*i:]
		arena[i] = core.Neighbor{
			ID:   binary.LittleEndian.Uint32(p),
			Dist: math.Float64frombits(binary.LittleEndian.Uint64(p[4:])),
		}
	}
	for i := range res {
		res[i] = codec.Carve(&arena, int(lens.Uvarint("")))
	}
	return res
}

func decodeStats(d *codec.Decoder) node.Stats {
	var s node.Stats
	for _, p := range [...]*int{&s.StaticLen, &s.DeltaLen, &s.Capacity, &s.Deleted, &s.Merges} {
		*p = int(d.Varint("stats"))
	}
	s.MergeInFlight = d.Flag("stats")
	s.MergePendingRows = int(d.Varint("stats"))
	s.LastMergeDur = time.Duration(d.Varint("stats"))
	for _, p := range [...]*int64{&s.TotalMergeNS, &s.InsertNS, &s.MemoryBytes} {
		*p = d.Varint("stats")
	}
	s.PersistErr = d.Str("stats")
	for _, p := range [...]*uint64{&s.SearchesServed, &s.InsertsServed, &s.DeletesServed} {
		*p = d.Uvarint("stats")
	}
	for _, p := range [...]*int64{&s.WALAppendP50NS, &s.WALAppendP99NS, &s.WALFsyncP50NS, &s.WALFsyncP99NS, &s.FamilyBytes} {
		*p = d.Varint("stats")
	}
	return s
}

// decodeRequest decodes a request payload. Only the header of an op this
// binary does not know is read; handle answers it as an unknown op.
func decodeRequest(p []byte) (*request, error) {
	d := codec.NewDecoder(p, errFrame)
	req := &request{Seq: d.Uvarint("seq"), Op: op(d.U8("op"))}
	req.Deadline = int64(d.U64("deadline"))
	switch req.Op {
	case opInsert:
		req.Vectors = d.Vectors()
	case opSearch:
		req.Params.Radius = math.Float64frombits(d.U64("radius"))
		req.Params.K = int(d.Varint("k"))
		req.Vectors = d.Vectors()
	case opDelete, opDoc:
		req.ID = d.U32("id")
	case opMerge, opRetire, opStats, opCancel, opFlush, opSave:
	default:
		if d.Err() != nil {
			return nil, d.Err()
		}
		return req, nil
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return req, nil
}

// decodeResponse decodes a response payload.
func decodeResponse(p []byte) (*response, error) {
	d := codec.NewDecoder(p, errFrame)
	resp := &response{Seq: d.Uvarint("seq"), Op: op(d.U8("op")), Code: respCode(d.U8("code"))}
	switch {
	case resp.Code > codeNotFound:
		d.Fail("unknown response code %d", resp.Code)
	case resp.Code == codeError:
		resp.Err = d.Str("error message")
	case resp.Code != codeOK:
	case resp.Op == opInsert:
		n := d.Count(4, "ids")
		raw := d.Take(4*n, "ids")
		if n > 0 && d.Err() == nil {
			resp.IDs = make([]uint32, n)
			codec.DecodeWords(resp.IDs, raw)
		}
	case resp.Op == opSearch:
		resp.Results = decodeResults(&d)
	case resp.Op == opDoc:
		resp.Known = d.Flag("known")
		if vs := d.Vectors(); len(vs) == 1 {
			resp.Doc = vs[0]
		} else if d.Err() == nil {
			d.Fail("doc reply carries %d vectors", len(vs))
		}
	case resp.Op == opStats:
		resp.Stats = decodeStats(&d)
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return resp, nil
}
