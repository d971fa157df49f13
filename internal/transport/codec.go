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

	"plsh/internal/core"
	"plsh/internal/node"
	"plsh/internal/sparse"
)

// The frame codec. Each direction of a connection opens with a preamble —
// the magic bytes and the wire revision — and then carries frames: a
// 4-byte little-endian payload length, then the payload. Integers are
// fixed-width little-endian or varints (encoding/binary's Uvarint, and
// Varint for signed values); floats travel as their IEEE bits, so answers
// cross bit for bit. A length or count is written before what it counts.
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
//	vectors  = n uvarint, n × (len(Idx) uvarint, len(Val) uvarint),
//	           every Idx entry u32, then every Val entry f32
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
	return headerMax + 8 + maxVarint + 4 + vectorsBound(req.Vectors)
}

func vectorsBound(vs []sparse.Vector) int {
	n := maxVarint
	for _, v := range vs {
		n += 2*maxVarint + 4*len(v.Idx) + 4*len(v.Val)
	}
	return n
}

// appendRequest appends req's frame to b.
func appendRequest(b []byte, req *request) []byte {
	b, start := beginFrame(b, requestBound(req))
	b = binary.AppendUvarint(b, req.Seq)
	b = append(b, byte(req.Op))
	b = binary.LittleEndian.AppendUint64(b, uint64(req.Deadline))
	switch req.Op {
	case opInsert:
		b = appendVectors(b, req.Vectors)
	case opSearch:
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(req.Params.Radius))
		b = binary.AppendVarint(b, int64(req.Params.K))
		b = appendVectors(b, req.Vectors)
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
		1 + vectorsBound([]sparse.Vector{resp.Doc}) + // opDoc
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
		b = appendString(b, resp.Err)
	case resp.Code != codeOK:
	case resp.Op == opInsert:
		b = binary.AppendUvarint(b, uint64(len(resp.IDs)))
		for _, id := range resp.IDs {
			b = binary.LittleEndian.AppendUint32(b, id)
		}
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
		b = appendVectors(b, []sparse.Vector{resp.Doc})
	case resp.Op == opStats:
		b = appendStats(b, &resp.Stats)
	}
	return endFrame(b, start)
}

func appendVectors(b []byte, vs []sparse.Vector) []byte {
	b = binary.AppendUvarint(b, uint64(len(vs)))
	for _, v := range vs {
		b = binary.AppendUvarint(b, uint64(len(v.Idx)))
		b = binary.AppendUvarint(b, uint64(len(v.Val)))
	}
	for _, v := range vs {
		for _, x := range v.Idx {
			b = binary.LittleEndian.AppendUint32(b, x)
		}
	}
	for _, v := range vs {
		for _, x := range v.Val {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(x))
		}
	}
	return b
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
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
// appended to node.Stats needs a line here and in decoder.stats, or
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
	b = appendString(b, s.PersistErr)
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

// decoder reads one frame's payload. The first failure sticks: every
// later read returns zero, and err reports the first.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: "+format, append([]any{errFrame}, args...)...)
	}
	d.b = nil
}

// take consumes n bytes, or fails if fewer are left.
func (d *decoder) take(n int, what string) []byte {
	if n > len(d.b) {
		d.fail("%s needs %d bytes, %d left", what, n, len(d.b))
		return nil
	}
	p := d.b[:n:n]
	d.b = d.b[n:]
	return p
}

func (d *decoder) u8(what string) byte {
	if p := d.take(1, what); p != nil {
		return p[0]
	}
	return 0
}

func (d *decoder) u32(what string) uint32 {
	if p := d.take(4, what); p != nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

func (d *decoder) u64(what string) uint64 {
	if p := d.take(8, what); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

func (d *decoder) uvarint(what string) uint64 {
	x, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("bad %s varint", what)
		return 0
	}
	d.b = d.b[n:]
	return x
}

func (d *decoder) varint(what string) int64 {
	x, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("bad %s varint", what)
		return 0
	}
	d.b = d.b[n:]
	return x
}

func (d *decoder) flag(what string) bool {
	switch d.u8(what) {
	case 0:
		return false
	case 1:
		return true
	}
	d.fail("%s is not a bool", what)
	return false
}

// count reads a count of items, each at least size bytes long, and fails
// unless that many fit in the bytes left.
func (d *decoder) count(size int, what string) int {
	n := d.uvarint(what)
	if n > uint64(len(d.b)/size) {
		d.fail("%d %s in %d bytes", n, what, len(d.b))
		return 0
	}
	return int(n)
}

func (d *decoder) str(what string) string {
	return string(d.take(d.count(1, what), what))
}

// done fails the frame if bytes are left over.
func (d *decoder) done() error {
	if d.err == nil && len(d.b) > 0 {
		d.fail("%d trailing bytes", len(d.b))
	}
	return d.err
}

// vectors reads a vectors block into one Idx and one Val array.
func (d *decoder) vectors() []sparse.Vector {
	n := d.count(2, "vectors")
	if n == 0 {
		return nil
	}
	// First pass over the lengths: the totals, checked against the bytes
	// left before anything is allocated.
	lens := *d
	var nIdx, nVal int
	for range n {
		nIdx += d.count(4, "indexes")
		nVal += d.count(4, "values")
	}
	idxBytes := d.take(4*nIdx, "indexes")
	valBytes := d.take(4*nVal, "values")
	if d.err != nil {
		return nil
	}
	vs := make([]sparse.Vector, n)
	idx := make([]uint32, nIdx)
	val := make([]float32, nVal)
	for i := range idx {
		idx[i] = binary.LittleEndian.Uint32(idxBytes[4*i:])
	}
	for i := range val {
		val[i] = math.Float32frombits(binary.LittleEndian.Uint32(valBytes[4*i:]))
	}
	for i := range vs {
		a, b := int(lens.uvarint("")), int(lens.uvarint(""))
		vs[i] = sparse.Vector{Idx: carve(&idx, a), Val: carve(&val, b)}
	}
	return vs
}

// carve cuts the next n items off *arena, capped so an append to one
// cannot overwrite the next; nil when n is 0.
func carve[T any](arena *[]T, n int) []T {
	if n == 0 {
		return nil
	}
	s := (*arena)[:n:n]
	*arena = (*arena)[n:]
	return s
}

// results reads answer lists carved from one []core.Neighbor.
func (d *decoder) results() [][]core.Neighbor {
	n := d.count(1, "answer lists")
	if n == 0 {
		return nil
	}
	lens := *d
	total := 0
	for range n {
		total += d.count(12, "neighbors")
	}
	raw := d.take(12*total, "neighbors")
	if d.err != nil {
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
		res[i] = carve(&arena, int(lens.uvarint("")))
	}
	return res
}

func (d *decoder) stats() node.Stats {
	var s node.Stats
	for _, p := range [...]*int{&s.StaticLen, &s.DeltaLen, &s.Capacity, &s.Deleted, &s.Merges} {
		*p = int(d.varint("stats"))
	}
	s.MergeInFlight = d.flag("stats")
	s.MergePendingRows = int(d.varint("stats"))
	s.LastMergeDur = time.Duration(d.varint("stats"))
	for _, p := range [...]*int64{&s.TotalMergeNS, &s.InsertNS, &s.MemoryBytes} {
		*p = d.varint("stats")
	}
	s.PersistErr = d.str("stats")
	for _, p := range [...]*uint64{&s.SearchesServed, &s.InsertsServed, &s.DeletesServed} {
		*p = d.uvarint("stats")
	}
	for _, p := range [...]*int64{&s.WALAppendP50NS, &s.WALAppendP99NS, &s.WALFsyncP50NS, &s.WALFsyncP99NS, &s.FamilyBytes} {
		*p = d.varint("stats")
	}
	return s
}

// decodeRequest decodes a request payload. Only the header of an op this
// binary does not know is read; handle answers it as an unknown op.
func decodeRequest(p []byte) (*request, error) {
	d := decoder{b: p}
	req := &request{Seq: d.uvarint("seq"), Op: op(d.u8("op"))}
	req.Deadline = int64(d.u64("deadline"))
	switch req.Op {
	case opInsert:
		req.Vectors = d.vectors()
	case opSearch:
		req.Params.Radius = math.Float64frombits(d.u64("radius"))
		req.Params.K = int(d.varint("k"))
		req.Vectors = d.vectors()
	case opDelete, opDoc:
		req.ID = d.u32("id")
	case opMerge, opRetire, opStats, opCancel, opFlush, opSave:
	default:
		if d.err != nil {
			return nil, d.err
		}
		return req, nil
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return req, nil
}

// decodeResponse decodes a response payload.
func decodeResponse(p []byte) (*response, error) {
	d := decoder{b: p}
	resp := &response{Seq: d.uvarint("seq"), Op: op(d.u8("op")), Code: respCode(d.u8("code"))}
	switch {
	case resp.Code > codeNotFound:
		d.fail("unknown response code %d", resp.Code)
	case resp.Code == codeError:
		resp.Err = d.str("error message")
	case resp.Code != codeOK:
	case resp.Op == opInsert:
		n := d.count(4, "ids")
		raw := d.take(4*n, "ids")
		if n > 0 && d.err == nil {
			resp.IDs = make([]uint32, n)
			for i := range resp.IDs {
				resp.IDs[i] = binary.LittleEndian.Uint32(raw[4*i:])
			}
		}
	case resp.Op == opSearch:
		resp.Results = d.results()
	case resp.Op == opDoc:
		resp.Known = d.flag("known")
		if vs := d.vectors(); len(vs) == 1 {
			resp.Doc = vs[0]
		} else if d.err == nil {
			d.fail("doc reply carries %d vectors", len(vs))
		}
	case resp.Op == opStats:
		resp.Stats = d.stats()
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return resp, nil
}
