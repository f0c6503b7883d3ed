// Package wire is the hand-rolled binary codec for every protocol payload.
// It serves two needs: the canonical encoding of consensus step messages
// into reliable-broadcast bodies (internal/core), where a compact,
// deterministic, comparable byte string is required, and the byte-size
// metering of every simulated message.
//
// The format is a one-byte kind discriminator followed by the payload's
// fields as varints (signed fields zig-zag encoded) and length-prefixed byte
// strings. Decoding is strict: unknown kinds, truncated input, invalid enum
// values, and trailing garbage are all errors, so a Byzantine process cannot
// smuggle out-of-model values past the codec.
//
// Every decoder reads through one field reader over a string. Each read
// takes one field off the front, and the first failure sticks: later reads
// return zero values and the reader keeps that first error, so a decoder
// reads a whole payload as one struct literal and checks the error once.
// Decoded strings are substrings of the input, so a decoded payload shares a
// single copy of the bytes it came from.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"repro/internal/types"
)

// Decoding errors.
var (
	ErrTruncated   = errors.New("wire: truncated input")
	ErrUnknownKind = errors.New("wire: unknown payload kind")
	ErrBadValue    = errors.New("wire: field out of range")
	ErrTrailing    = errors.New("wire: trailing bytes after payload")
	ErrTooLarge    = errors.New("wire: length prefix exceeds limit")
)

// MaxBodyLen bounds any length-prefixed field. It caps allocation from
// hostile length prefixes long before io limits would.
const MaxBodyLen = 1 << 20

// MaxCertVoters bounds the voter list of a checkpoint certificate. Honest
// certificates carry exactly 2f+1 < n entries; the bound stops a hostile
// count prefix from forcing a giant allocation before length checks bite.
const MaxCertVoters = 1 << 16

// MaxBatchCommands bounds the command count of a batch body, and
// MaxBatchBytes bounds its total command payload — together they keep a
// hostile batch body from forcing a giant allocation, and keep every honest
// batch encodable inside an RBC body (MaxBodyLen) with framing to spare.
const (
	MaxBatchCommands = 1 << 16
	MaxBatchBytes    = MaxBodyLen / 2
)

// Coded-RBC fragment framing bounds. SumLen is the width of one SHA-256
// cross-checksum entry; MaxFragShards is the shard-count ceiling imposed by
// GF(2^8) (rscode caps n at 255, so a Sums vector has at most 255 entries).
// maxFragFraming conservatively covers the fixed fragment overhead: the kind
// byte, four instance-ID varints, the Index and TotalLen varints, and the
// two length prefixes (≤ 10 bytes each at int64 width).
//
// MaxFragLen is chosen so a maximal fragment message still encodes inside
// MaxBodyLen: MaxFragLen + MaxFragShards·SumLen + maxFragFraming =
// MaxBodyLen exactly. This is the size seam the batch layer leans on — a
// MaxBatchBytes batch body encodes to at most
// 1 + 3 + MaxBatchBytes + 3·MaxBatchCommands ≈ 717 KiB of RBC body, and
// even the degenerate k = 1 code (the whole body in one fragment) stays
// under MaxFragLen ≈ 1016 KiB, with the full 255-entry checksum vector and
// framing on top fitting MaxBodyLen. Oversized fragments are rejected with
// ErrTooLarge at encode time (the door), never truncated downstream.
const (
	SumLen         = 32
	MaxFragShards  = 255
	maxFragFraming = 64
	MaxFragLen     = MaxBodyLen - MaxFragShards*SumLen - maxFragFraming
)

// EncodePayload serializes any protocol payload into a fresh buffer. Hot
// paths that can reuse a destination should call AppendPayload instead; the
// two produce byte-identical output.
func EncodePayload(p types.Payload) ([]byte, error) {
	return AppendPayload(nil, p)
}

// AppendPayload serializes a protocol payload by appending its canonical
// encoding to dst (which may be nil) and returns the extended slice. On
// error dst is returned unchanged. The bytes appended are exactly what
// EncodePayload produces — callers may therefore swap one for the other
// freely, keeping every canonical body stable.
func AppendPayload(dst []byte, p types.Payload) ([]byte, error) {
	switch v := p.(type) {
	case *types.RBCPayload:
		if v.Phase != types.KindRBCSend && v.Phase != types.KindRBCEcho && v.Phase != types.KindRBCReady {
			return dst, fmt.Errorf("%w: RBC phase %v", ErrBadValue, v.Phase)
		}
		if err := oversized(v.Body); err != nil {
			return dst, err
		}
		buf := appendInstance(append(dst, byte(v.Phase)), v.ID)
		return appendString(buf, v.Body), nil
	case *types.CoinSharePayload:
		if err := oversized(v.Share, v.MAC); err != nil {
			return dst, err
		}
		buf := appendInt(append(dst, byte(types.KindCoinShare)), v.Round)
		return appendString(appendString(buf, v.Share), v.MAC), nil
	case *types.DecidePayload:
		if !v.V.Valid() {
			return dst, fmt.Errorf("%w: decide value %d", ErrBadValue, v.V)
		}
		buf := append(dst, byte(types.KindDecide), byte(v.V))
		return appendInt(buf, v.Instance), nil
	case *types.PlainPayload:
		if !v.V.Valid() {
			return dst, fmt.Errorf("%w: plain value %d", ErrBadValue, v.V)
		}
		buf := append(dst, byte(types.KindPlain))
		buf = appendInt(buf, v.Round)
		buf = appendInt(buf, int(v.Step))
		buf = append(buf, byte(v.V), flags(v.D, v.Q))
		return buf, nil
	case *types.CkptVotePayload:
		if err := checkStrings(v.MACs); err != nil {
			return dst, err
		}
		buf := append(dst, byte(types.KindCkptVote))
		buf = appendInt(buf, v.Slot)
		buf = binary.AppendUvarint(buf, v.StateDigest)
		buf = binary.AppendUvarint(buf, v.LogDigest)
		return appendStrings(buf, v.MACs), nil
	case *types.CkptRequestPayload:
		buf := append(dst, byte(types.KindCkptRequest))
		buf = appendInt(buf, v.Slot)
		return appendInt(buf, v.Nonce), nil
	case *types.CkptCertPayload:
		if len(v.Voters) != len(v.VoteMACs) {
			return dst, fmt.Errorf("%w: %d voters, %d MAC vectors", ErrBadValue, len(v.Voters), len(v.VoteMACs))
		}
		if len(v.Voters) > MaxCertVoters {
			return dst, fmt.Errorf("%w: %d cert voters", ErrTooLarge, len(v.Voters))
		}
		if err := oversized(v.Snapshot); err != nil {
			return dst, err
		}
		buf := append(dst, byte(types.KindCkptCert))
		buf = appendInt(buf, v.Slot)
		buf = binary.AppendUvarint(buf, v.StateDigest)
		buf = binary.AppendUvarint(buf, v.LogDigest)
		buf = binary.AppendUvarint(buf, uint64(len(v.Voters)))
		for i, voter := range v.Voters {
			if err := checkStrings(v.VoteMACs[i]); err != nil {
				return dst, err
			}
			buf = appendInt(buf, int(voter))
			buf = appendStrings(buf, v.VoteMACs[i])
		}
		return appendString(buf, v.Snapshot), nil
	case *types.RBCFragPayload:
		if err := validateFrag(v.Index, v.TotalLen, len(v.Sums), len(v.Frag)); err != nil {
			return dst, err
		}
		buf := appendInstance(append(dst, byte(types.KindRBCFrag)), v.ID)
		buf = appendInt(buf, v.Index)
		buf = appendInt(buf, v.TotalLen)
		return appendString(appendString(buf, v.Sums), v.Frag), nil
	case *types.RBCSumPayload:
		if len(v.Sum) != SumLen {
			return dst, fmt.Errorf("%w: %d-byte checksum key (want %d)", ErrBadValue, len(v.Sum), SumLen)
		}
		buf := appendInstance(append(dst, byte(types.KindRBCSum)), v.ID)
		return appendString(buf, v.Sum), nil
	case nil:
		return dst, fmt.Errorf("%w: nil payload", ErrBadValue)
	default:
		return dst, fmt.Errorf("%w: %T", ErrUnknownKind, p)
	}
}

// oversized rejects any length-prefixed field longer than MaxBodyLen.
// Decoders refuse such fields unconditionally; failing at the producer keeps
// a too-big body, share or snapshot a loud error instead of a message that
// silently never lands.
func oversized(fields ...string) error {
	for _, f := range fields {
		if len(f) > MaxBodyLen {
			return fmt.Errorf("%w: %d-byte field (max %d)", ErrTooLarge, len(f), MaxBodyLen)
		}
	}
	return nil
}

// checkStrings bounds a MAC vector the way reader.strs reads it back.
func checkStrings(ss []string) error {
	if len(ss) > MaxCertVoters {
		return fmt.Errorf("%w: %d MAC entries", ErrTooLarge, len(ss))
	}
	return oversized(ss...)
}

// validateFrag enforces the fragment invariants: a well-formed checksum
// vector (non-empty, whole SumLen entries, at most MaxFragShards of them),
// an Index naming one of its entries, a TotalLen a real body could have, and
// a non-empty fragment within the MaxFragLen seam (see the constant's
// comment for the arithmetic). The encoder checks them; decoders reach them
// through the canonical re-encode.
func validateFrag(index, totalLen, sumsLen, fragLen int) error {
	if sumsLen == 0 || sumsLen%SumLen != 0 {
		return fmt.Errorf("%w: %d-byte checksum vector (want multiple of %d)", ErrBadValue, sumsLen, SumLen)
	}
	shards := sumsLen / SumLen
	if shards > MaxFragShards {
		return fmt.Errorf("%w: %d checksum entries", ErrTooLarge, shards)
	}
	if index < 0 || index >= shards {
		return fmt.Errorf("%w: fragment index %d of %d shards", ErrBadValue, index, shards)
	}
	if totalLen < 0 || totalLen > MaxBodyLen {
		return fmt.Errorf("%w: fragment total length %d", ErrBadValue, totalLen)
	}
	if fragLen == 0 {
		return fmt.Errorf("%w: empty fragment", ErrBadValue)
	}
	if fragLen > MaxFragLen {
		return fmt.Errorf("%w: %d-byte fragment (max %d)", ErrTooLarge, fragLen, MaxFragLen)
	}
	return nil
}

// DecodePayload parses a payload produced by EncodePayload. It rejects
// trailing bytes and non-canonical encodings: only the exact bytes
// EncodePayload produces are accepted, so every logical payload has one
// wire representation (see decode).
func DecodePayload(buf []byte) (types.Payload, error) {
	m, err := decode(buf, false)
	return m.Payload, err
}

// decode parses a payload, preceded by the From/To varints when framed, and
// re-encodes the result for comparison with the input. Varints admit padded
// encodings of the same value; protocol layers key tallies and dedup by
// message content (the coded-RBC kinds hash fragments, the checkpoint plane
// digests certificates), so two distinct encodings of one logical payload
// must not both parse (the same reasoning DecodeStep and DecodeBatch apply
// to RBC bodies). The re-encode also runs the encoder's semantic checks
// (fragment invariants, checksum width), so the decoder need not repeat
// them. DecodePayload and DecodeMessage both come through here, covering
// every kind at once.
func decode(buf []byte, framed bool) (types.Message, error) {
	in := string(buf)
	r := reader{s: in}
	var m types.Message
	if framed {
		m.From, m.To = types.ProcessID(r.int()), types.ProcessID(r.int())
	}
	m.Payload = decodePayload(&r)
	if err := r.done(); err != nil {
		return types.Message{}, err
	}
	bp := GetBuffer()
	re := *bp
	if framed {
		re = appendInt(appendInt(re, int(m.From)), int(m.To))
	}
	re, err := AppendPayload(re, m.Payload)
	if err == nil && string(re) != in {
		err = fmt.Errorf("%w: non-canonical %v encoding", ErrBadValue, m.Payload.Kind())
	}
	*bp = re[:0]
	PutBuffer(bp)
	if err != nil {
		return types.Message{}, err
	}
	return m, nil
}

// decodePayload reads one payload off r. Go evaluates the calls in a
// composite literal left to right, which is the field order on the wire. On
// a failed read the result holds zero fields and r.err says why.
func decodePayload(r *reader) types.Payload {
	switch kind := types.Kind(r.byte()); kind {
	case types.KindRBCSend, types.KindRBCEcho, types.KindRBCReady:
		return &types.RBCPayload{Phase: kind, ID: r.instance(), Body: r.str()}
	case types.KindCoinShare:
		return &types.CoinSharePayload{Round: r.int(), Share: r.str(), MAC: r.str()}
	case types.KindDecide:
		return &types.DecidePayload{V: r.value(), Instance: r.int()}
	case types.KindPlain:
		p := &types.PlainPayload{Round: r.int(), Step: types.Step(r.int()), V: r.value()}
		p.D, p.Q = r.flags()
		return p
	case types.KindCkptVote:
		return &types.CkptVotePayload{Slot: r.int(), StateDigest: r.uint(), LogDigest: r.uint(), MACs: r.strs()}
	case types.KindCkptRequest:
		return &types.CkptRequestPayload{Slot: r.int(), Nonce: r.int()}
	case types.KindCkptCert:
		p := &types.CkptCertPayload{Slot: r.int(), StateDigest: r.uint(), LogDigest: r.uint()}
		if n := r.count(MaxCertVoters); n > 0 {
			p.Voters, p.VoteMACs = make([]types.ProcessID, n), make([][]string, n)
			for i := range n {
				p.Voters[i], p.VoteMACs[i] = types.ProcessID(r.int()), r.strs()
			}
		}
		p.Snapshot = r.str()
		return p
	case types.KindRBCFrag:
		return &types.RBCFragPayload{ID: r.instance(), Index: r.int(), TotalLen: r.int(), Sums: r.str(), Frag: r.str()}
	case types.KindRBCSum:
		return &types.RBCSumPayload{ID: r.instance(), Sum: r.str()}
	default:
		r.fail(fmt.Errorf("%w: %d", ErrUnknownKind, kind))
		return nil
	}
}

// EncodeMessage serializes a full point-to-point message; MessageSize is the
// length of its output.
func EncodeMessage(m types.Message) ([]byte, error) {
	return AppendMessage(nil, m)
}

// AppendMessage appends EncodeMessage's output to dst; on error dst is
// returned unchanged.
func AppendMessage(dst []byte, m types.Message) ([]byte, error) {
	buf := appendInt(dst, int(m.From))
	buf = appendInt(buf, int(m.To))
	buf, err := AppendPayload(buf, m.Payload)
	if err != nil {
		return dst, err
	}
	return buf, nil
}

// DecodeMessage parses a message produced by EncodeMessage. Like
// DecodePayload it is strictly canonical: the whole frame — the From/To
// varints included — is re-encoded and compared against the input, so a
// padded address varint cannot yield two wire frames for one message.
func DecodeMessage(buf []byte) (types.Message, error) {
	return decode(buf, true)
}

// EncodeStep canonically encodes a consensus step message for use as a
// reliable-broadcast body. The encoding is injective, so body equality
// (string comparison in the RBC instance) coincides with logical equality.
// The bodies of rounds 1..internedRounds come from a table built once, so
// encoding one allocates nothing; past it the scratch buffer is pooled, and
// the only allocation per call is the string itself, which the body must
// own anyway.
func EncodeStep(s types.StepMessage) (string, error) {
	if body, ok := internedStep(s); ok {
		return body, nil
	}
	bp := GetBuffer()
	defer PutBuffer(bp)
	buf, err := AppendStep(*bp, s)
	if err != nil {
		return "", err
	}
	*bp = buf[:0]
	return string(buf), nil
}

// internedRounds is how many rounds of step bodies stepBodies holds: every
// body a run sends in its first rounds, which is where nearly every run
// decides.
const internedRounds = 64

// stepBodies[r-1][step-1][v][d] is EncodeStep's body for round r; the d = 1
// column is filled for step 3 only, the one step a decision proposal
// travels in.
var stepBodies = func() (t [internedRounds][3][2][2]string) {
	var b []byte
	for r := range t {
		for st := range t[r] {
			for v := range t[r][st] {
				for d := range t[r][st][v] {
					s := types.StepMessage{Round: r + 1, Step: types.Step1 + types.Step(st), V: types.Value(v), D: d == 1}
					var err error
					if b, err = AppendStep(b[:0], s); err == nil {
						t[r][st][v][d] = string(b)
					}
				}
			}
		}
	}
	return t
}()

// internedStep returns s's body from stepBodies, or false when s is past the
// table or invalid.
func internedStep(s types.StepMessage) (string, bool) {
	if s.Round < 1 || s.Round > internedRounds || !s.Step.Valid() || !s.V.Valid() || s.D && s.Step != types.Step3 {
		return "", false
	}
	d := 0
	if s.D {
		d = 1
	}
	return stepBodies[s.Round-1][s.Step-types.Step1][s.V][d], true
}

// AppendStep appends EncodeStep's canonical bytes to dst; on error dst is
// returned unchanged.
func AppendStep(dst []byte, s types.StepMessage) ([]byte, error) {
	if !s.Step.Valid() {
		return dst, fmt.Errorf("%w: step %d", ErrBadValue, s.Step)
	}
	if !s.V.Valid() {
		return dst, fmt.Errorf("%w: step value %d", ErrBadValue, s.V)
	}
	if s.Round < 1 {
		return dst, fmt.Errorf("%w: round %d", ErrBadValue, s.Round)
	}
	if s.D && s.Step != types.Step3 {
		return dst, fmt.Errorf("%w: decision proposal in step %v", ErrBadValue, s.Step)
	}
	buf := appendInt(dst, s.Round)
	return append(buf, byte(s.Step), byte(s.V), flags(s.D, false)), nil
}

// DecodeStep parses an EncodeStep body. Byzantine senders control RBC
// bodies, so all fields are validated.
func DecodeStep(body string) (types.StepMessage, error) {
	r := reader{s: body}
	s := types.StepMessage{Round: r.int(), Step: types.Step(r.byte()), V: r.value()}
	s.D, _ = r.flags() // a set Q flag re-encodes differently below
	if err := r.done(); err != nil {
		return types.StepMessage{}, err
	}
	// Canonicality: varints admit padded encodings of the same value, which
	// would let two distinct body strings carry the same logical step and
	// undermine the body-equality reasoning of reliable broadcast. Accept
	// only the exact bytes AppendStep produces; its checks also reject a
	// round below 1, an unknown step and a decision flag outside step 3.
	var scratch [binary.MaxVarintLen64 + 3]byte
	re, err := AppendStep(scratch[:0], s)
	if err != nil || string(re) != body {
		return types.StepMessage{}, fmt.Errorf("%w: step body %q", ErrBadValue, body)
	}
	return s, nil
}

// EncodeBatch canonically encodes a batch of submitted commands for use as
// a reliable-broadcast dissemination body. Like EncodeStep the encoding is
// injective and strictly canonical, so body equality in the RBC instance
// coincides with logical equality of the command sequence. A batch is never
// a top-level payload: it always rides inside an RBCPayload body.
func EncodeBatch(cmds []string) (string, error) {
	bp := GetBuffer()
	defer PutBuffer(bp)
	buf, err := AppendBatch(*bp, cmds)
	if err != nil {
		return "", err
	}
	*bp = buf[:0]
	return string(buf), nil
}

// AppendBatch appends EncodeBatch's canonical bytes to dst; on error dst is
// returned unchanged. Format: the KindBatch discriminator, a uvarint command
// count (at least one), then length-prefixed command strings in submission
// order.
func AppendBatch(dst []byte, cmds []string) ([]byte, error) {
	if err := checkBatch(cmds); err != nil {
		return dst, err
	}
	buf := append(dst, byte(types.KindBatch))
	buf = binary.AppendUvarint(buf, uint64(len(cmds)))
	for _, c := range cmds {
		buf = appendString(buf, c)
	}
	return buf, nil
}

// checkBatch enforces the batch bounds shared by the encoder and decoder: at
// least one command, at most MaxBatchCommands, at most MaxBatchBytes in all.
func checkBatch(cmds []string) error {
	if len(cmds) == 0 {
		return fmt.Errorf("%w: empty batch", ErrBadValue)
	}
	if len(cmds) > MaxBatchCommands {
		return fmt.Errorf("%w: %d batch commands", ErrTooLarge, len(cmds))
	}
	total := 0
	for _, c := range cmds {
		total += len(c)
		if total > MaxBatchBytes {
			return fmt.Errorf("%w: %d batch payload bytes", ErrTooLarge, total)
		}
	}
	return nil
}

// DecodeBatch parses an EncodeBatch body. Byzantine proposers control RBC
// bodies, so the count and total size are bounded, and — as with DecodeStep —
// only the exact bytes EncodeBatch produces are accepted: varints admit
// padded encodings of the same value, which would let two distinct body
// strings disseminate the same logical batch. The commands are substrings of
// body, so the command slice is the only allocation, and any one command
// that is kept keeps the whole body alive.
func DecodeBatch(body string) ([]string, error) {
	if body == "" || types.Kind(body[0]) != types.KindBatch {
		return nil, fmt.Errorf("%w: not a batch body", ErrBadValue)
	}
	r := reader{s: body[1:]}
	cmds := make([]string, r.count(MaxBatchCommands))
	size := 1 + uvarintLen(uint64(len(cmds)))
	for i := range cmds {
		cmds[i] = r.str()
		size += stringLen(len(cmds[i]))
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	// Every varint read took at least its minimal width and the strings their
	// exact length, so the body is EncodeBatch's bytes exactly when it is as
	// short as they are — a canonical check with no re-encode buffer.
	if size != len(body) {
		return nil, fmt.Errorf("%w: non-canonical batch body", ErrBadValue)
	}
	if err := checkBatch(cmds); err != nil {
		return nil, err
	}
	return cmds, nil
}

// PayloadSize returns len(EncodePayload(p)) by pure arithmetic — no buffer
// is built, so the simulator can meter bytes-on-wire for every message
// without allocating on the hot path. Unknown or nil payloads size to 0
// (they would not encode either). The equality with the real encoder is
// pinned by TestPayloadSizeMatchesEncoder.
func PayloadSize(p types.Payload) int {
	switch v := p.(type) {
	case *types.RBCPayload:
		return 1 + instanceLen(v.ID) + stringLen(len(v.Body))
	case *types.RBCFragPayload:
		return 1 + instanceLen(v.ID) + varintLen(int64(v.Index)) + varintLen(int64(v.TotalLen)) +
			stringLen(len(v.Sums)) + stringLen(len(v.Frag))
	case *types.RBCSumPayload:
		return 1 + instanceLen(v.ID) + stringLen(len(v.Sum))
	case *types.CoinSharePayload:
		return 1 + varintLen(int64(v.Round)) + stringLen(len(v.Share)) + stringLen(len(v.MAC))
	case *types.DecidePayload:
		return 2 + varintLen(int64(v.Instance))
	case *types.PlainPayload:
		return 3 + varintLen(int64(v.Round)) + varintLen(int64(v.Step))
	case *types.CkptVotePayload:
		size := 1 + varintLen(int64(v.Slot)) + uvarintLen(v.StateDigest) + uvarintLen(v.LogDigest) +
			uvarintLen(uint64(len(v.MACs)))
		for _, m := range v.MACs {
			size += stringLen(len(m))
		}
		return size
	case *types.CkptRequestPayload:
		return 1 + varintLen(int64(v.Slot)) + varintLen(int64(v.Nonce))
	case *types.CkptCertPayload:
		size := 1 + varintLen(int64(v.Slot)) + uvarintLen(v.StateDigest) + uvarintLen(v.LogDigest) +
			uvarintLen(uint64(len(v.Voters)))
		for i, voter := range v.Voters {
			size += varintLen(int64(voter)) + uvarintLen(uint64(len(v.VoteMACs[i])))
			for _, m := range v.VoteMACs[i] {
				size += stringLen(len(m))
			}
		}
		return size + stringLen(len(v.Snapshot))
	default:
		return 0
	}
}

// MessageSize returns len(EncodeMessage(m)) by pure arithmetic; see
// PayloadSize.
func MessageSize(m types.Message) int {
	return varintLen(int64(m.From)) + varintLen(int64(m.To)) + PayloadSize(m.Payload)
}

// instanceLen is the encoded size of appendInstance's four varints.
func instanceLen(id types.InstanceID) int {
	return varintLen(int64(id.Sender)) + varintLen(int64(id.Tag.Round)) +
		varintLen(int64(id.Tag.Step)) + varintLen(int64(id.Tag.Seq))
}

// uvarintLen is the byte length of binary.AppendUvarint(nil, v).
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// varintLen is the byte length of binary.AppendVarint(nil, v) (zig-zag).
func varintLen(v int64) int {
	return uvarintLen(uint64(v)<<1 ^ uint64(v>>63))
}

// stringLen is the encoded size of a length-prefixed string of l bytes.
func stringLen(l int) int {
	return uvarintLen(uint64(l)) + l
}

func flags(d, q bool) byte {
	var b byte
	if d {
		b |= 1
	}
	if q {
		b |= 2
	}
	return b
}

// bufPool recycles encode scratch buffers, which also back DecodePayload's
// and DecodeMessage's canonical re-encodes. A returned buffer keeps the
// capacity it grew to: step bodies take a few bytes, but batch bodies run to
// 32 KiB in the benchmark's coded workload, so after warm-up encoding does
// not ask the allocator for buffer space.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 256)
		return &b
	},
}

// GetBuffer borrows an empty scratch buffer from the package pool. Callers
// append into it (typically via AppendPayload or AppendStep), copy or frame
// the result, and must return it with PutBuffer.
func GetBuffer() *[]byte {
	return bufPool.Get().(*[]byte)
}

// PutBuffer returns a borrowed buffer to the pool. The caller must not touch
// the buffer afterwards.
func PutBuffer(b *[]byte) {
	*b = (*b)[:0]
	bufPool.Put(b)
}

func appendInt(buf []byte, v int) []byte {
	return binary.AppendVarint(buf, int64(v))
}

// appendInstance appends an instance ID as four varints: sender, round,
// step, seq.
func appendInstance(buf []byte, id types.InstanceID) []byte {
	buf = appendInt(buf, int(id.Sender))
	buf = appendInt(buf, id.Tag.Round)
	buf = appendInt(buf, int(id.Tag.Step))
	return appendInt(buf, id.Tag.Seq)
}

// appendStrings and reader.strs carry checkpoint MAC vectors: a count
// prefix followed by length-prefixed strings. The count is bounded like the
// voter list it parallels.
func appendStrings(buf []byte, ss []string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ss)))
	for _, s := range ss {
		buf = appendString(buf, s)
	}
	return buf
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// reader is the decoders' field reader: each method takes one field off the
// front of s. The first failure sticks — it empties s, every later read
// returns a zero value, and err keeps that first failure — so a decoder
// reads all its fields and checks err once. Strings it returns are
// substrings of the input.
type reader struct {
	s   string
	err error
}

// fail records err unless an earlier failure already stuck.
func (r *reader) fail(err error) {
	if r.err == nil {
		r.err, r.s = err, ""
	}
}

// done returns the first failure, or ErrTrailing if input is left over.
func (r *reader) done() error {
	if r.err == nil && r.s != "" {
		return ErrTrailing
	}
	return r.err
}

// uint reads a uvarint (checkpoint digests use the full unsigned range and
// must not pass through the zig-zag signed path).
func (r *reader) uint() uint64 {
	v, n := binary.Uvarint([]byte(r.s))
	if n <= 0 {
		r.fail(ErrTruncated)
		return 0
	}
	r.s = r.s[n:]
	return v
}

// int reads a zig-zag varint.
func (r *reader) int() int {
	u := r.uint()
	return int(int64(u>>1) ^ -int64(u&1))
}

func (r *reader) byte() byte {
	if r.s == "" {
		r.fail(ErrTruncated)
		return 0
	}
	b := r.s[0]
	r.s = r.s[1:]
	return b
}

// value reads a one-byte binary consensus value.
func (r *reader) value() types.Value {
	v := types.Value(r.byte())
	if !v.Valid() {
		r.fail(fmt.Errorf("%w: value %d", ErrBadValue, v))
	}
	return v
}

// flags reads the one-byte D/Q flag pair.
func (r *reader) flags() (d, q bool) {
	b := r.byte()
	if b > 3 {
		r.fail(fmt.Errorf("%w: flags %#x", ErrBadValue, b))
	}
	return b&1 != 0, b&2 != 0
}

// bounded reads a uvarint of at most max (ErrTooLarge above it).
func (r *reader) bounded(max uint64) uint64 {
	v := r.uint()
	if v > max {
		r.fail(fmt.Errorf("%w: %d exceeds %d", ErrTooLarge, v, max))
		return 0
	}
	return v
}

// count reads a string length or an element count: at most max, and at most
// the bytes left (ErrTruncated), since every byte or element takes at least
// one — so a hostile prefix fails before it sizes an allocation.
func (r *reader) count(max int) int {
	v := r.bounded(uint64(max))
	if v > uint64(len(r.s)) {
		r.fail(ErrTruncated)
		return 0
	}
	return int(v)
}

// take reads the next n bytes; count has checked that n are left.
func (r *reader) take(n int) string {
	s := r.s[:n]
	r.s = r.s[n:]
	return s
}

// str reads a length-prefixed string of at most MaxBodyLen bytes.
func (r *reader) str() string { return r.take(r.count(MaxBodyLen)) }

// strs reads a MAC vector (see appendStrings); an empty one reads as nil.
func (r *reader) strs() (ss []string) {
	if n := r.count(MaxCertVoters); n > 0 {
		ss = make([]string, n)
		for i := range ss {
			ss[i] = r.str()
		}
	}
	return ss
}

// instance reads appendInstance's four varints.
func (r *reader) instance() types.InstanceID {
	return types.InstanceID{
		Sender: types.ProcessID(r.int()),
		Tag:    types.Tag{Round: r.int(), Step: types.Step(r.int()), Seq: r.int()},
	}
}

// Reader is the field reader for packages that frame their own records
// around wire payloads; the checkpoint store loads its records with it.
type Reader struct{ reader }

// NewReader reads fields off the front of s.
func NewReader(s string) *Reader { return &Reader{reader{s: s}} }

// Uint reads a uvarint of at most max.
func (r *Reader) Uint(max uint64) uint64 { return r.bounded(max) }

// Count reads a count of at most max that the remaining bytes could hold.
func (r *Reader) Count(max int) int { return r.count(max) }

// Str reads a length-prefixed string of at most max bytes, as a substring
// of the input.
func (r *Reader) Str(max int) string { return r.take(r.count(max)) }

// Done returns the first failure, or ErrTrailing if input is left over.
func (r *Reader) Done() error { return r.done() }
