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
		buf := append(dst, byte(v.Phase))
		buf = appendInt(buf, int(v.ID.Sender))
		buf = appendInt(buf, v.ID.Tag.Round)
		buf = appendInt(buf, int(v.ID.Tag.Step))
		buf = appendInt(buf, v.ID.Tag.Seq)
		buf = appendString(buf, v.Body)
		return buf, nil
	case *types.CoinSharePayload:
		buf := append(dst, byte(types.KindCoinShare))
		buf = appendInt(buf, v.Round)
		buf = appendString(buf, v.Share)
		buf = appendString(buf, v.MAC)
		return buf, nil
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
		if len(v.MACs) > MaxCertVoters {
			return dst, fmt.Errorf("%w: %d vote MAC entries", ErrTooLarge, len(v.MACs))
		}
		buf := append(dst, byte(types.KindCkptVote))
		buf = appendInt(buf, v.Slot)
		buf = appendUint64(buf, v.StateDigest)
		buf = appendUint64(buf, v.LogDigest)
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
		if len(v.Snapshot) > MaxBodyLen {
			// Decoders reject oversized fields unconditionally; failing at
			// the producer keeps a too-big application snapshot a loud
			// error instead of a transfer that silently never lands.
			return dst, fmt.Errorf("%w: %d-byte snapshot", ErrTooLarge, len(v.Snapshot))
		}
		buf := append(dst, byte(types.KindCkptCert))
		buf = appendInt(buf, v.Slot)
		buf = appendUint64(buf, v.StateDigest)
		buf = appendUint64(buf, v.LogDigest)
		buf = binary.AppendUvarint(buf, uint64(len(v.Voters)))
		for i, voter := range v.Voters {
			if len(v.VoteMACs[i]) > MaxCertVoters {
				return dst, fmt.Errorf("%w: %d MAC entries for voter %v", ErrTooLarge, len(v.VoteMACs[i]), voter)
			}
			buf = appendInt(buf, int(voter))
			buf = appendStrings(buf, v.VoteMACs[i])
		}
		return appendString(buf, v.Snapshot), nil
	case *types.RBCFragPayload:
		if err := validateFrag(v.Index, v.TotalLen, len(v.Sums), len(v.Frag)); err != nil {
			return dst, err
		}
		buf := append(dst, byte(types.KindRBCFrag))
		buf = appendInt(buf, int(v.ID.Sender))
		buf = appendInt(buf, v.ID.Tag.Round)
		buf = appendInt(buf, int(v.ID.Tag.Step))
		buf = appendInt(buf, v.ID.Tag.Seq)
		buf = appendInt(buf, v.Index)
		buf = appendInt(buf, v.TotalLen)
		buf = appendString(buf, v.Sums)
		buf = appendString(buf, v.Frag)
		return buf, nil
	case *types.RBCSumPayload:
		if len(v.Sum) != SumLen {
			return dst, fmt.Errorf("%w: %d-byte checksum key (want %d)", ErrBadValue, len(v.Sum), SumLen)
		}
		buf := append(dst, byte(types.KindRBCSum))
		buf = appendInt(buf, int(v.ID.Sender))
		buf = appendInt(buf, v.ID.Tag.Round)
		buf = appendInt(buf, int(v.ID.Tag.Step))
		buf = appendInt(buf, v.ID.Tag.Seq)
		buf = appendString(buf, v.Sum)
		return buf, nil
	case nil:
		return dst, fmt.Errorf("%w: nil payload", ErrBadValue)
	default:
		return dst, fmt.Errorf("%w: %T", ErrUnknownKind, p)
	}
}

// validateFrag enforces the fragment invariants shared by the encoder and
// decoder: a well-formed checksum vector (non-empty, whole SumLen entries,
// at most MaxFragShards of them), an Index naming one of its entries, a
// TotalLen a real body could have, and a non-empty fragment within the
// MaxFragLen seam (see the constant's comment for the arithmetic).
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
// wire representation (see checkCanonical).
func DecodePayload(buf []byte) (types.Payload, error) {
	p, rest, err := decodePayload(buf)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, ErrTrailing
	}
	if err := checkCanonical(p, buf, len(buf)); err != nil {
		return nil, err
	}
	return p, nil
}

func decodePayload(buf []byte) (types.Payload, []byte, error) {
	if len(buf) == 0 {
		return nil, nil, ErrTruncated
	}
	kind := types.Kind(buf[0])
	buf = buf[1:]
	switch kind {
	case types.KindRBCSend, types.KindRBCEcho, types.KindRBCReady:
		sender, buf, err := readInt(buf)
		if err != nil {
			return nil, nil, err
		}
		round, buf, err := readInt(buf)
		if err != nil {
			return nil, nil, err
		}
		step, buf, err := readInt(buf)
		if err != nil {
			return nil, nil, err
		}
		seq, buf, err := readInt(buf)
		if err != nil {
			return nil, nil, err
		}
		body, buf, err := readBytes(buf)
		if err != nil {
			return nil, nil, err
		}
		p := &types.RBCPayload{
			Phase: kind,
			ID: types.InstanceID{
				Sender: types.ProcessID(sender),
				Tag:    types.Tag{Round: round, Step: types.Step(step), Seq: seq},
			},
			Body: string(body),
		}
		return p, buf, nil
	case types.KindCoinShare:
		round, buf, err := readInt(buf)
		if err != nil {
			return nil, nil, err
		}
		share, buf, err := readBytes(buf)
		if err != nil {
			return nil, nil, err
		}
		mac, buf, err := readBytes(buf)
		if err != nil {
			return nil, nil, err
		}
		return &types.CoinSharePayload{Round: round, Share: string(share), MAC: string(mac)}, buf, nil
	case types.KindDecide:
		if len(buf) < 1 {
			return nil, nil, ErrTruncated
		}
		v := types.Value(buf[0])
		if !v.Valid() {
			return nil, nil, fmt.Errorf("%w: decide value %d", ErrBadValue, v)
		}
		instance, buf, err := readInt(buf[1:])
		if err != nil {
			return nil, nil, err
		}
		return &types.DecidePayload{V: v, Instance: instance}, buf, nil
	case types.KindPlain:
		round, buf, err := readInt(buf)
		if err != nil {
			return nil, nil, err
		}
		step, buf, err := readInt(buf)
		if err != nil {
			return nil, nil, err
		}
		if len(buf) < 2 {
			return nil, nil, ErrTruncated
		}
		v := types.Value(buf[0])
		if !v.Valid() {
			return nil, nil, fmt.Errorf("%w: plain value %d", ErrBadValue, v)
		}
		d, q, err := parseFlags(buf[1])
		if err != nil {
			return nil, nil, err
		}
		p := &types.PlainPayload{Round: round, Step: types.Step(step), V: v, D: d, Q: q}
		return p, buf[2:], nil
	case types.KindCkptVote:
		slot, buf, err := readInt(buf)
		if err != nil {
			return nil, nil, err
		}
		state, buf, err := readUint64(buf)
		if err != nil {
			return nil, nil, err
		}
		log, buf, err := readUint64(buf)
		if err != nil {
			return nil, nil, err
		}
		macs, buf, err := readStrings(buf)
		if err != nil {
			return nil, nil, err
		}
		return &types.CkptVotePayload{Slot: slot, StateDigest: state, LogDigest: log, MACs: macs}, buf, nil
	case types.KindCkptRequest:
		slot, buf, err := readInt(buf)
		if err != nil {
			return nil, nil, err
		}
		nonce, buf, err := readInt(buf)
		if err != nil {
			return nil, nil, err
		}
		return &types.CkptRequestPayload{Slot: slot, Nonce: nonce}, buf, nil
	case types.KindCkptCert:
		slot, buf, err := readInt(buf)
		if err != nil {
			return nil, nil, err
		}
		state, buf, err := readUint64(buf)
		if err != nil {
			return nil, nil, err
		}
		log, buf, err := readUint64(buf)
		if err != nil {
			return nil, nil, err
		}
		count, n := binary.Uvarint(buf)
		if n <= 0 {
			return nil, nil, ErrTruncated
		}
		if count > MaxCertVoters {
			return nil, nil, fmt.Errorf("%w: %d cert voters", ErrTooLarge, count)
		}
		buf = buf[n:]
		var voters []types.ProcessID
		var voteMACs [][]string
		if count > 0 {
			voters = make([]types.ProcessID, 0, count)
			voteMACs = make([][]string, 0, count)
		}
		for i := uint64(0); i < count; i++ {
			voter, rest, err := readInt(buf)
			if err != nil {
				return nil, nil, err
			}
			macs, rest, err := readStrings(rest)
			if err != nil {
				return nil, nil, err
			}
			voters = append(voters, types.ProcessID(voter))
			voteMACs = append(voteMACs, macs)
			buf = rest
		}
		snap, buf, err := readBytes(buf)
		if err != nil {
			return nil, nil, err
		}
		return &types.CkptCertPayload{
			Slot: slot, StateDigest: state, LogDigest: log,
			Voters: voters, VoteMACs: voteMACs, Snapshot: string(snap),
		}, buf, nil
	case types.KindRBCFrag:
		sender, buf, err := readInt(buf)
		if err != nil {
			return nil, nil, err
		}
		round, buf, err := readInt(buf)
		if err != nil {
			return nil, nil, err
		}
		step, buf, err := readInt(buf)
		if err != nil {
			return nil, nil, err
		}
		seq, buf, err := readInt(buf)
		if err != nil {
			return nil, nil, err
		}
		index, buf, err := readInt(buf)
		if err != nil {
			return nil, nil, err
		}
		totalLen, buf, err := readInt(buf)
		if err != nil {
			return nil, nil, err
		}
		sums, buf, err := readBytes(buf)
		if err != nil {
			return nil, nil, err
		}
		frag, buf, err := readBytes(buf)
		if err != nil {
			return nil, nil, err
		}
		if err := validateFrag(index, totalLen, len(sums), len(frag)); err != nil {
			return nil, nil, err
		}
		p := &types.RBCFragPayload{
			ID: types.InstanceID{
				Sender: types.ProcessID(sender),
				Tag:    types.Tag{Round: round, Step: types.Step(step), Seq: seq},
			},
			Index:    index,
			TotalLen: totalLen,
			Sums:     string(sums),
			Frag:     string(frag),
		}
		return p, buf, nil
	case types.KindRBCSum:
		sender, buf, err := readInt(buf)
		if err != nil {
			return nil, nil, err
		}
		round, buf, err := readInt(buf)
		if err != nil {
			return nil, nil, err
		}
		step, buf, err := readInt(buf)
		if err != nil {
			return nil, nil, err
		}
		seq, buf, err := readInt(buf)
		if err != nil {
			return nil, nil, err
		}
		sum, buf, err := readBytes(buf)
		if err != nil {
			return nil, nil, err
		}
		if len(sum) != SumLen {
			return nil, nil, fmt.Errorf("%w: %d-byte checksum key (want %d)", ErrBadValue, len(sum), SumLen)
		}
		p := &types.RBCSumPayload{
			ID: types.InstanceID{
				Sender: types.ProcessID(sender),
				Tag:    types.Tag{Round: round, Step: types.Step(step), Seq: seq},
			},
			Sum: string(sum),
		}
		return p, buf, nil
	default:
		return nil, nil, fmt.Errorf("%w: %d", ErrUnknownKind, kind)
	}
}

// checkCanonical re-encodes a freshly decoded payload and compares it to the
// consumed byte span. Varints admit padded encodings of the same value;
// protocol layers key tallies and dedup by message content (the coded-RBC
// kinds hash fragments, the checkpoint plane digests certificates), so two
// distinct encodings of one logical payload must not both parse (the same
// reasoning DecodeStep and DecodeBatch apply to RBC bodies). DecodePayload
// and DecodeMessage apply it at the entry point, covering every kind at once.
func checkCanonical(p types.Payload, full []byte, consumed int) error {
	bp := GetBuffer()
	re, err := AppendPayload(*bp, p)
	if err == nil {
		if len(re) != consumed || string(re) != string(full[:consumed]) {
			err = fmt.Errorf("%w: non-canonical %v encoding", ErrBadValue, p.Kind())
		}
	}
	*bp = re[:0]
	PutBuffer(bp)
	return err
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
	full := buf
	from, buf, err := readInt(buf)
	if err != nil {
		return types.Message{}, err
	}
	to, buf, err := readInt(buf)
	if err != nil {
		return types.Message{}, err
	}
	p, rest, err := decodePayload(buf)
	if err != nil {
		return types.Message{}, err
	}
	if len(rest) != 0 {
		return types.Message{}, ErrTrailing
	}
	m := types.Message{From: types.ProcessID(from), To: types.ProcessID(to), Payload: p}
	bp := GetBuffer()
	re, err := AppendMessage(*bp, m)
	if err == nil && (len(re) != len(full) || string(re) != string(full)) {
		err = fmt.Errorf("%w: non-canonical message encoding", ErrBadValue)
	}
	*bp = re[:0]
	PutBuffer(bp)
	if err != nil {
		return types.Message{}, err
	}
	return m, nil
}

// EncodeStep canonically encodes a consensus step message for use as a
// reliable-broadcast body. The encoding is injective, so body equality
// (string comparison in the RBC instance) coincides with logical equality.
// The scratch buffer is pooled: the only allocation per call is the string
// itself, which the body must own anyway.
func EncodeStep(s types.StepMessage) (string, error) {
	bp := GetBuffer()
	defer PutBuffer(bp)
	buf, err := AppendStep(*bp, s)
	if err != nil {
		return "", err
	}
	*bp = buf[:0]
	return string(buf), nil
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
	round, rest, err := readInt([]byte(body))
	if err != nil {
		return types.StepMessage{}, err
	}
	if len(rest) != 3 {
		return types.StepMessage{}, ErrTruncated
	}
	s := types.StepMessage{Round: round, Step: types.Step(rest[0]), V: types.Value(rest[1])}
	if round < 1 || !s.Step.Valid() || !s.V.Valid() {
		return types.StepMessage{}, fmt.Errorf("%w: step body %q", ErrBadValue, body)
	}
	d, q, err := parseFlags(rest[2])
	if err != nil || q || (d && s.Step != types.Step3) {
		return types.StepMessage{}, fmt.Errorf("%w: step flags %q", ErrBadValue, body)
	}
	s.D = d
	// Canonicality: varints admit padded encodings of the same value, which
	// would let two distinct body strings carry the same logical step and
	// undermine the body-equality reasoning of reliable broadcast. Accept
	// only the exact bytes EncodeStep produces.
	canonical, err := EncodeStep(s)
	if err != nil || canonical != body {
		return types.StepMessage{}, fmt.Errorf("%w: non-canonical step body %q", ErrBadValue, body)
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
	if len(cmds) == 0 {
		return dst, fmt.Errorf("%w: empty batch", ErrBadValue)
	}
	if len(cmds) > MaxBatchCommands {
		return dst, fmt.Errorf("%w: %d batch commands", ErrTooLarge, len(cmds))
	}
	total := 0
	for _, c := range cmds {
		total += len(c)
		if total > MaxBatchBytes {
			return dst, fmt.Errorf("%w: %d batch payload bytes", ErrTooLarge, total)
		}
	}
	buf := append(dst, byte(types.KindBatch))
	buf = binary.AppendUvarint(buf, uint64(len(cmds)))
	for _, c := range cmds {
		buf = appendString(buf, c)
	}
	return buf, nil
}

// DecodeBatch parses an EncodeBatch body. Byzantine proposers control RBC
// bodies, so the count and total size are bounded, and — as with DecodeStep —
// only the exact bytes EncodeBatch produces are accepted: varints admit
// padded encodings of the same value, which would let two distinct body
// strings disseminate the same logical batch.
func DecodeBatch(body string) ([]string, error) {
	buf := []byte(body)
	if len(buf) == 0 || types.Kind(buf[0]) != types.KindBatch {
		return nil, fmt.Errorf("%w: not a batch body", ErrBadValue)
	}
	buf = buf[1:]
	count, n := binary.Uvarint(buf)
	if n <= 0 {
		return nil, ErrTruncated
	}
	if count == 0 {
		return nil, fmt.Errorf("%w: empty batch", ErrBadValue)
	}
	if count > MaxBatchCommands {
		return nil, fmt.Errorf("%w: %d batch commands", ErrTooLarge, count)
	}
	buf = buf[n:]
	// Every command costs at least its one-byte length prefix, so a count
	// exceeding the remaining bytes is truncated — checked before the count
	// sizes an allocation.
	if count > uint64(len(buf)) {
		return nil, ErrTruncated
	}
	cmds := make([]string, 0, count)
	total := 0
	for i := uint64(0); i < count; i++ {
		c, rest, err := readBytes(buf)
		if err != nil {
			return nil, err
		}
		total += len(c)
		if total > MaxBatchBytes {
			return nil, fmt.Errorf("%w: %d batch payload bytes", ErrTooLarge, total)
		}
		cmds = append(cmds, string(c))
		buf = rest
	}
	if len(buf) != 0 {
		return nil, ErrTrailing
	}
	bp := GetBuffer()
	re, err := AppendBatch(*bp, cmds)
	if err == nil && string(re) != body {
		err = fmt.Errorf("%w: non-canonical batch body", ErrBadValue)
	}
	*bp = re[:0]
	PutBuffer(bp)
	if err != nil {
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
		return 1 + varintLen(int64(v.ID.Sender)) + varintLen(int64(v.ID.Tag.Round)) +
			varintLen(int64(v.ID.Tag.Step)) + varintLen(int64(v.ID.Tag.Seq)) +
			stringLen(len(v.Body))
	case *types.RBCFragPayload:
		return 1 + varintLen(int64(v.ID.Sender)) + varintLen(int64(v.ID.Tag.Round)) +
			varintLen(int64(v.ID.Tag.Step)) + varintLen(int64(v.ID.Tag.Seq)) +
			varintLen(int64(v.Index)) + varintLen(int64(v.TotalLen)) +
			stringLen(len(v.Sums)) + stringLen(len(v.Frag))
	case *types.RBCSumPayload:
		return 1 + varintLen(int64(v.ID.Sender)) + varintLen(int64(v.ID.Tag.Round)) +
			varintLen(int64(v.ID.Tag.Step)) + varintLen(int64(v.ID.Tag.Seq)) +
			stringLen(len(v.Sum))
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

func parseFlags(b byte) (d, q bool, err error) {
	if b > 3 {
		return false, false, fmt.Errorf("%w: flags %#x", ErrBadValue, b)
	}
	return b&1 != 0, b&2 != 0, nil
}

// bufPool recycles encode scratch buffers. 256 bytes covers every protocol
// payload of this module (bodies are step encodings of a few bytes; coin
// shares plus MAC stay under 64 bytes), so steady-state encoding never asks
// the allocator for buffer space.
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

// appendUint64 and readUint64 carry checkpoint digests, which use the full
// unsigned range and must not pass through the zig-zag signed path.
func appendUint64(buf []byte, v uint64) []byte {
	return binary.AppendUvarint(buf, v)
}

// appendStrings and readStrings carry checkpoint MAC vectors: a count
// prefix followed by length-prefixed strings. The count is bounded like the
// voter list it parallels.
func appendStrings(buf []byte, ss []string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ss)))
	for _, s := range ss {
		buf = appendString(buf, s)
	}
	return buf
}

func readStrings(buf []byte) ([]string, []byte, error) {
	count, n := binary.Uvarint(buf)
	if n <= 0 {
		return nil, nil, ErrTruncated
	}
	if count > MaxCertVoters {
		return nil, nil, fmt.Errorf("%w: %d MAC entries", ErrTooLarge, count)
	}
	buf = buf[n:]
	var ss []string
	if count > 0 {
		ss = make([]string, 0, count)
	}
	for i := uint64(0); i < count; i++ {
		s, rest, err := readBytes(buf)
		if err != nil {
			return nil, nil, err
		}
		ss = append(ss, string(s))
		buf = rest
	}
	return ss, buf, nil
}

func readUint64(buf []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(buf)
	if n <= 0 {
		return 0, nil, ErrTruncated
	}
	return v, buf[n:], nil
}

// appendString is appendBytes for string fields, avoiding the []byte(s)
// conversion allocation on the encode path.
func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func readInt(buf []byte) (int, []byte, error) {
	v, n := binary.Varint(buf)
	if n <= 0 {
		return 0, nil, ErrTruncated
	}
	return int(v), buf[n:], nil
}

func readBytes(buf []byte) ([]byte, []byte, error) {
	l, n := binary.Uvarint(buf)
	if n <= 0 {
		return nil, nil, ErrTruncated
	}
	if l > MaxBodyLen {
		return nil, nil, fmt.Errorf("%w: %d bytes", ErrTooLarge, l)
	}
	buf = buf[n:]
	if uint64(len(buf)) < l {
		return nil, nil, ErrTruncated
	}
	out := make([]byte, l)
	copy(out, buf[:l])
	return out, buf[l:], nil
}
