package wire

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/types"
)

func allPayloads() []types.Payload {
	return []types.Payload{
		&types.RBCPayload{
			Phase: types.KindRBCSend,
			ID:    types.InstanceID{Sender: 3, Tag: types.Tag{Round: 2, Step: types.Step1}},
			Body:  "hello",
		},
		&types.RBCPayload{
			Phase: types.KindRBCEcho,
			ID:    types.InstanceID{Sender: 1, Tag: types.Tag{Seq: 42}},
			Body:  "",
		},
		&types.RBCPayload{
			Phase: types.KindRBCReady,
			ID:    types.InstanceID{Sender: 250, Tag: types.Tag{Round: 100, Step: types.Step3}},
			Body:  string([]byte{0, 1, 2, 255}),
		},
		&types.CoinSharePayload{Round: 9, Share: "sh", MAC: "mac-bytes"},
		&types.CoinSharePayload{Round: 0, Share: "", MAC: ""},
		&types.DecidePayload{V: types.Zero},
		&types.DecidePayload{V: types.One},
		&types.PlainPayload{Round: 4, Step: types.Step2, V: types.One, D: true},
		&types.PlainPayload{Round: 1, Step: types.Step1, V: types.Zero, Q: true},
		&types.PlainPayload{Round: 7, Step: types.Step3, V: types.One},
		&types.CkptVotePayload{Slot: 64, StateDigest: 0xDEADBEEFCAFE, LogDigest: ^uint64(0), MACs: []string{"m1", "m2", "", "m4"}},
		&types.CkptVotePayload{Slot: 0, StateDigest: 0, LogDigest: 0},
		&types.CkptRequestPayload{Slot: 37, Nonce: 4},
		&types.CkptCertPayload{
			Slot: 128, StateDigest: 1, LogDigest: 2,
			Voters:   []types.ProcessID{1, 3, 4},
			VoteMACs: [][]string{{"a1", "a2"}, {"b1", "b2"}, {"c1", "c2"}},
			Snapshot: "k=v\n",
		},
		&types.CkptCertPayload{Slot: 8, StateDigest: 9, LogDigest: 10},
		&types.RBCFragPayload{
			ID:    types.InstanceID{Sender: 2, Tag: types.Tag{Seq: 1<<20 + 5}},
			Index: 1, TotalLen: 77,
			Sums: strings.Repeat("\x11", 3*SumLen),
			Frag: "fragment bytes",
		},
		&types.RBCFragPayload{
			ID:    types.InstanceID{Sender: 255, Tag: types.Tag{Round: 3, Step: types.Step2, Seq: 0}},
			Index: 0, TotalLen: 0,
			Sums: strings.Repeat("\x00", SumLen),
			Frag: "\x00",
		},
		&types.RBCSumPayload{
			ID:  types.InstanceID{Sender: 7, Tag: types.Tag{Seq: 42}},
			Sum: strings.Repeat("\xAB", SumLen),
		},
	}
}

func TestPayloadRoundTrip(t *testing.T) {
	for _, p := range allPayloads() {
		t.Run(p.Kind().String(), func(t *testing.T) {
			buf, err := EncodePayload(p)
			if err != nil {
				t.Fatalf("EncodePayload: %v", err)
			}
			got, err := DecodePayload(buf)
			if err != nil {
				t.Fatalf("DecodePayload: %v", err)
			}
			if !reflect.DeepEqual(got, p) {
				t.Errorf("round trip mismatch:\n got %#v\nwant %#v", got, p)
			}
		})
	}
}

func TestMessageRoundTrip(t *testing.T) {
	for _, p := range allPayloads() {
		m := types.Message{From: 5, To: 11, Payload: p}
		buf, err := EncodeMessage(m)
		if err != nil {
			t.Fatalf("EncodeMessage: %v", err)
		}
		got, err := DecodeMessage(buf)
		if err != nil {
			t.Fatalf("DecodeMessage: %v", err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("round trip mismatch:\n got %#v\nwant %#v", got, m)
		}
	}
}

func TestEncodeRejectsInvalid(t *testing.T) {
	huge := strings.Repeat("x", MaxBodyLen+1)
	tests := []struct {
		name string
		p    types.Payload
		want error
	}{
		{"nil payload", nil, ErrBadValue},
		{"cert voters/MAC-vectors mismatch", &types.CkptCertPayload{Voters: []types.ProcessID{1}}, ErrBadValue},
		{"bad RBC phase", &types.RBCPayload{Phase: types.KindDecide}, ErrBadValue},
		{"bad decide value", &types.DecidePayload{V: 7}, ErrBadValue},
		{"bad plain value", &types.PlainPayload{V: 9}, ErrBadValue},
		// Every length-prefixed field the decoder would refuse is refused at
		// encode time too.
		{"RBC body over MaxBodyLen", &types.RBCPayload{Phase: types.KindRBCSend, Body: huge}, ErrTooLarge},
		{"coin share over MaxBodyLen", &types.CoinSharePayload{Share: huge}, ErrTooLarge},
		{"coin MAC over MaxBodyLen", &types.CoinSharePayload{MAC: huge}, ErrTooLarge},
		{"vote MAC over MaxBodyLen", &types.CkptVotePayload{MACs: []string{"m", huge}}, ErrTooLarge},
		{"cert vote MAC over MaxBodyLen", &types.CkptCertPayload{
			Voters: []types.ProcessID{1}, VoteMACs: [][]string{{huge}}, Snapshot: "s",
		}, ErrTooLarge},
		{"cert snapshot over MaxBodyLen", &types.CkptCertPayload{Snapshot: huge}, ErrTooLarge},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := EncodePayload(tt.p); !errors.Is(err, tt.want) {
				t.Errorf("error = %v, want %v", err, tt.want)
			}
		})
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	good, err := EncodePayload(&types.DecidePayload{V: types.One})
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name string
		buf  []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"unknown kind", []byte{0xEE}, ErrUnknownKind},
		{"truncated decide", []byte{byte(types.KindDecide)}, ErrTruncated},
		{"bad decide value", []byte{byte(types.KindDecide), 9}, ErrBadValue},
		{"trailing bytes", append(append([]byte{}, good...), 0x00), ErrTrailing},
		{"truncated rbc", []byte{byte(types.KindRBCSend), 2}, ErrTruncated},
		{"truncated coin", []byte{byte(types.KindCoinShare)}, ErrTruncated},
		{"truncated plain", []byte{byte(types.KindPlain), 2, 2, 0}, ErrTruncated},
		{"bad plain flags", []byte{byte(types.KindPlain), 2, 2, 0, 9}, ErrBadValue},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := DecodePayload(tt.buf); !errors.Is(err, tt.want) {
				t.Errorf("error = %v, want %v", err, tt.want)
			}
		})
	}
}

func TestDecodeRejectsHostileLength(t *testing.T) {
	// RBC send with an absurd body length prefix but no body.
	buf := []byte{byte(types.KindRBCSend)}
	buf = appendInt(buf, 1) // sender
	buf = appendInt(buf, 1) // round
	buf = appendInt(buf, 1) // step
	buf = appendInt(buf, 0) // seq
	buf = append(buf, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F)
	if _, err := DecodePayload(buf); !errors.Is(err, ErrTooLarge) {
		t.Errorf("error = %v, want ErrTooLarge", err)
	}
}

func TestStepRoundTrip(t *testing.T) {
	tests := []types.StepMessage{
		{Round: 1, Step: types.Step1, V: types.Zero},
		{Round: 1, Step: types.Step2, V: types.One},
		{Round: 3, Step: types.Step3, V: types.One, D: true},
		{Round: 1000000, Step: types.Step3, V: types.Zero, D: true},
	}
	for _, s := range tests {
		body, err := EncodeStep(s)
		if err != nil {
			t.Fatalf("EncodeStep(%v): %v", s, err)
		}
		got, err := DecodeStep(body)
		if err != nil {
			t.Fatalf("DecodeStep(%q): %v", body, err)
		}
		if got != s {
			t.Errorf("round trip: got %v, want %v", got, s)
		}
	}
}

// TestEncodeStepInterned: every step body of rounds 1..internedRounds comes
// from the table, byte-equal to a fresh AppendStep encoding and with no
// allocation; a round past the table encodes as before, into a new string
// (one allocation; the race detector's pool adds one).
func TestEncodeStepInterned(t *testing.T) {
	entries := 0
	for r := 1; r <= internedRounds+1; r++ {
		for st := types.Step1; st <= types.Step3; st++ {
			for v := types.Zero; v <= types.One; v++ {
				for _, d := range []bool{false, true} {
					s := types.StepMessage{Round: r, Step: st, V: v, D: d}
					want, err := AppendStep(nil, s)
					if d && st != types.Step3 {
						if _, err := EncodeStep(s); err == nil {
							t.Errorf("EncodeStep(%v) accepted a decision proposal outside step 3", s)
						}
						continue
					}
					if err != nil {
						t.Fatal(err)
					}
					body, err := EncodeStep(s)
					if err != nil || body != string(want) {
						t.Fatalf("EncodeStep(%v) = %q, %v; want %q", s, body, err, want)
					}
					allocs := testing.AllocsPerRun(10, func() { body, _ = EncodeStep(s) })
					if interned := r <= internedRounds; interned != (allocs == 0) {
						t.Errorf("EncodeStep(%v): %v allocs, interned %v", s, allocs, interned)
					}
					if r <= internedRounds {
						entries++
					}
				}
			}
		}
	}
	if entries != internedRounds*8 {
		t.Errorf("%d interned bodies, want %d", entries, internedRounds*8)
	}
}

func TestEncodeStepRejectsInvalid(t *testing.T) {
	tests := []struct {
		name string
		s    types.StepMessage
	}{
		{"round zero", types.StepMessage{Round: 0, Step: types.Step1, V: types.Zero}},
		{"bad step", types.StepMessage{Round: 1, Step: 5, V: types.Zero}},
		{"bad value", types.StepMessage{Round: 1, Step: types.Step1, V: 3}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := EncodeStep(tt.s); !errors.Is(err, ErrBadValue) {
				t.Errorf("error = %v, want ErrBadValue", err)
			}
		})
	}
}

func TestDecodeStepRejectsMalformed(t *testing.T) {
	tests := []struct {
		name string
		body string
	}{
		{"empty", ""},
		{"short", "\x02"},
		{"bad step", string([]byte{2, 9, 0, 0})},
		{"bad value", string([]byte{2, 1, 9, 0})},
		{"bad flags", string([]byte{2, 1, 0, 2})},
		{"round zero", string([]byte{0, 1, 0, 0})},
		{"negative round", string([]byte{1, 1, 0, 0})}, // varint 1 decodes as -1 zig-zag
		{"trailing", string([]byte{2, 1, 0, 0, 0})},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := DecodeStep(tt.body); err == nil {
				t.Errorf("DecodeStep(%q) accepted malformed input", tt.body)
			}
		})
	}
}

// TestStepEncodingInjective: distinct step messages must map to distinct
// bodies (the RBC echo-counting keys on body equality).
func TestStepEncodingInjective(t *testing.T) {
	seen := map[string]types.StepMessage{}
	for round := 1; round <= 50; round++ {
		for _, step := range []types.Step{types.Step1, types.Step2, types.Step3} {
			for _, v := range []types.Value{types.Zero, types.One} {
				for _, d := range []bool{false, true} {
					if d && step != types.Step3 {
						continue // not encodable: D exists only in step 3
					}
					s := types.StepMessage{Round: round, Step: step, V: v, D: d}
					body, err := EncodeStep(s)
					if err != nil {
						t.Fatal(err)
					}
					if prev, dup := seen[body]; dup {
						t.Fatalf("collision: %v and %v both encode to %q", prev, s, body)
					}
					seen[body] = s
				}
			}
		}
	}
}

func TestBatchRoundTrip(t *testing.T) {
	tests := [][]string{
		{"a"},
		{""},
		{"set k v", "get k", "del k"},
		{string([]byte{0, 1, 2, 255}), "", "plain"},
		make([]string, 64),
	}
	for _, cmds := range tests {
		body, err := EncodeBatch(cmds)
		if err != nil {
			t.Fatalf("EncodeBatch(%q): %v", cmds, err)
		}
		got, err := DecodeBatch(body)
		if err != nil {
			t.Fatalf("DecodeBatch(%q): %v", body, err)
		}
		if !reflect.DeepEqual(got, cmds) {
			t.Errorf("round trip: got %q, want %q", got, cmds)
		}
	}
}

func TestEncodeBatchRejectsInvalid(t *testing.T) {
	if _, err := EncodeBatch(nil); !errors.Is(err, ErrBadValue) {
		t.Errorf("empty batch: error = %v, want ErrBadValue", err)
	}
	if _, err := EncodeBatch(make([]string, MaxBatchCommands+1)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized count: error = %v, want ErrTooLarge", err)
	}
	big := string(make([]byte, MaxBatchBytes))
	if _, err := EncodeBatch([]string{big, "x"}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized payload: error = %v, want ErrTooLarge", err)
	}
}

func TestDecodeBatchRejectsMalformed(t *testing.T) {
	kind := byte(types.KindBatch)
	tests := []struct {
		name string
		body string
		want error
	}{
		{"empty", "", ErrBadValue},
		{"wrong kind", "\x01\x01\x01a", ErrBadValue},
		{"no count", string([]byte{kind}), ErrTruncated},
		{"zero count", string([]byte{kind, 0}), ErrBadValue},
		{"hostile count", string([]byte{kind, 0xFF, 0xFF, 0x7F}), ErrTooLarge},
		{"count beyond body", string([]byte{kind, 5, 1, 'a'}), ErrTruncated},
		{"truncated command", string([]byte{kind, 1, 4, 'a'}), ErrTruncated},
		{"trailing bytes", string([]byte{kind, 1, 1, 'a', 0}), ErrTrailing},
		// Count 1 encoded as a padded two-byte varint: same logical batch,
		// different bytes — must be rejected for body-equality soundness.
		{"non-canonical count", string([]byte{kind, 0x81, 0x00, 1, 'a'}), ErrBadValue},
		{"non-canonical length", string([]byte{kind, 1, 0x81, 0x00, 'a'}), ErrBadValue},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := DecodeBatch(tt.body); !errors.Is(err, tt.want) {
				t.Errorf("error = %v, want %v", err, tt.want)
			}
		})
	}
}

// TestBatchEncodingInjective: distinct command sequences must map to
// distinct bodies — dissemination RBC keys on body equality, so a collision
// would let one broadcast commit two different command sequences.
func TestBatchEncodingInjective(t *testing.T) {
	seen := map[string][]string{}
	batches := [][]string{
		{"a"}, {"a", ""}, {"", "a"}, {"a", "b"}, {"ab"}, {"a", "b", ""},
		{"ab", ""}, {"", "ab"}, {"a\x00b"}, {"a", "\x00b"},
	}
	for _, cmds := range batches {
		body, err := EncodeBatch(cmds)
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[body]; dup {
			t.Fatalf("collision: %q and %q both encode to %q", prev, cmds, body)
		}
		seen[body] = cmds
	}
}

// TestPayloadPropertyRoundTrip fuzzes RBC payloads through the codec.
func TestPayloadPropertyRoundTrip(t *testing.T) {
	prop := func(sender uint16, round, seq int32, stepRaw uint8, body []byte, phaseRaw uint8) bool {
		phases := []types.Kind{types.KindRBCSend, types.KindRBCEcho, types.KindRBCReady}
		if len(body) > 1024 {
			body = body[:1024]
		}
		p := &types.RBCPayload{
			Phase: phases[int(phaseRaw)%3],
			ID: types.InstanceID{
				Sender: types.ProcessID(sender),
				Tag: types.Tag{
					Round: int(round),
					Step:  types.Step(stepRaw),
					Seq:   int(seq),
				},
			},
			Body: string(body),
		}
		buf, err := EncodePayload(p)
		if err != nil {
			return false
		}
		got, err := DecodePayload(buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, p)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestFragBoundaries exercises the fragment size seam at the exact limits:
// the largest legal fragment message must encode (and stay within
// MaxBodyLen), and every one-past-the-limit variant must be rejected with a
// typed error at encode time.
func TestFragBoundaries(t *testing.T) {
	id := types.InstanceID{Sender: 255, Tag: types.Tag{Round: 1 << 30, Step: types.Step3, Seq: 1 << 30}}
	maxSums := strings.Repeat("\xFF", MaxFragShards*SumLen)
	t.Run("maximal fragment fits MaxBodyLen", func(t *testing.T) {
		p := &types.RBCFragPayload{
			ID: id, Index: MaxFragShards - 1, TotalLen: MaxBodyLen,
			Sums: maxSums, Frag: strings.Repeat("\x7E", MaxFragLen),
		}
		buf, err := EncodePayload(p)
		if err != nil {
			t.Fatalf("EncodePayload at the limit: %v", err)
		}
		if len(buf) > MaxBodyLen {
			t.Fatalf("maximal fragment encodes to %d bytes, exceeding MaxBodyLen %d", len(buf), MaxBodyLen)
		}
		got, err := DecodePayload(buf)
		if err != nil {
			t.Fatalf("DecodePayload at the limit: %v", err)
		}
		if !reflect.DeepEqual(got, p) {
			t.Error("limit fragment round trip mismatch")
		}
	})
	t.Run("batch body in one fragment fits", func(t *testing.T) {
		// The seam the dissemination layer leans on: even the degenerate k=1
		// code must fit a maximal encoded batch body in a single fragment.
		cmds := make([]string, MaxBatchCommands)
		per := MaxBatchBytes / MaxBatchCommands
		for i := range cmds {
			cmds[i] = strings.Repeat("c", per)
		}
		body, err := EncodeBatch(cmds)
		if err != nil {
			t.Fatalf("EncodeBatch at the limit: %v", err)
		}
		if len(body) > MaxFragLen {
			t.Fatalf("maximal batch body (%d bytes) exceeds MaxFragLen (%d): the seam is broken", len(body), MaxFragLen)
		}
		p := &types.RBCFragPayload{ID: id, Index: 0, TotalLen: len(body), Sums: maxSums, Frag: body}
		if _, err := EncodePayload(p); err != nil {
			t.Fatalf("maximal batch body refused as a fragment: %v", err)
		}
	})
	oversize := []struct {
		name string
		p    types.Payload
		want error
	}{
		{"fragment one past MaxFragLen", &types.RBCFragPayload{
			ID: id, Index: 0, TotalLen: 1, Sums: maxSums, Frag: strings.Repeat("x", MaxFragLen+1),
		}, ErrTooLarge},
		{"one checksum entry too many", &types.RBCFragPayload{
			ID: id, Index: 0, TotalLen: 1, Sums: maxSums + strings.Repeat("\x00", SumLen), Frag: "x",
		}, ErrTooLarge},
		{"ragged checksum vector", &types.RBCFragPayload{
			ID: id, Index: 0, TotalLen: 1, Sums: strings.Repeat("\x00", SumLen+1), Frag: "x",
		}, ErrBadValue},
		{"empty checksum vector", &types.RBCFragPayload{
			ID: id, Index: 0, TotalLen: 1, Sums: "", Frag: "x",
		}, ErrBadValue},
		{"index out of range", &types.RBCFragPayload{
			ID: id, Index: 2, TotalLen: 1, Sums: strings.Repeat("\x00", 2*SumLen), Frag: "x",
		}, ErrBadValue},
		{"negative index", &types.RBCFragPayload{
			ID: id, Index: -1, TotalLen: 1, Sums: strings.Repeat("\x00", SumLen), Frag: "x",
		}, ErrBadValue},
		{"total length past MaxBodyLen", &types.RBCFragPayload{
			ID: id, Index: 0, TotalLen: MaxBodyLen + 1, Sums: strings.Repeat("\x00", SumLen), Frag: "x",
		}, ErrBadValue},
		{"negative total length", &types.RBCFragPayload{
			ID: id, Index: 0, TotalLen: -1, Sums: strings.Repeat("\x00", SumLen), Frag: "x",
		}, ErrBadValue},
		{"empty fragment", &types.RBCFragPayload{
			ID: id, Index: 0, TotalLen: 1, Sums: strings.Repeat("\x00", SumLen), Frag: "",
		}, ErrBadValue},
		{"short checksum key", &types.RBCSumPayload{ID: id, Sum: strings.Repeat("s", SumLen-1)}, ErrBadValue},
		{"long checksum key", &types.RBCSumPayload{ID: id, Sum: strings.Repeat("s", SumLen+1)}, ErrBadValue},
	}
	for _, tt := range oversize {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := EncodePayload(tt.p); !errors.Is(err, tt.want) {
				t.Errorf("error = %v, want %v", err, tt.want)
			}
		})
	}
}

// TestFragDecodeRejectsNonCanonical: a fragment whose varints are padded (or
// whose validation fails only at the semantic layer) must not parse even
// when structurally decodable.
func TestFragDecodeRejectsNonCanonical(t *testing.T) {
	p := &types.RBCFragPayload{
		ID:    types.InstanceID{Sender: 2, Tag: types.Tag{Seq: 9}},
		Index: 0, TotalLen: 4, Sums: strings.Repeat("\x22", SumLen), Frag: "abcd",
	}
	good, err := EncodePayload(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodePayload(good); err != nil {
		t.Fatalf("canonical fragment must decode: %v", err)
	}
	// Pad the first varint (sender = 2 → zig-zag 4 → 0x04): the two-byte
	// encoding 0x84 0x00 denotes the same value.
	bad := append([]byte{good[0], 0x84, 0x00}, good[2:]...)
	if _, err := DecodePayload(bad); !errors.Is(err, ErrBadValue) {
		t.Errorf("padded-varint fragment error = %v, want ErrBadValue", err)
	}
	// Same for the checksum-key ready message.
	s := &types.RBCSumPayload{ID: p.ID, Sum: strings.Repeat("\x22", SumLen)}
	goodSum, err := EncodePayload(s)
	if err != nil {
		t.Fatal(err)
	}
	badSum := append([]byte{goodSum[0], 0x84, 0x00}, goodSum[2:]...)
	if _, err := DecodePayload(badSum); !errors.Is(err, ErrBadValue) {
		t.Errorf("padded-varint sum error = %v, want ErrBadValue", err)
	}
}

// TestPayloadSizeMatchesEncoder pins the arithmetic sizer to the real
// encoder across the full payload battery (plus messages): the simulator's
// bytes-on-wire metering is exactly what a transport would send.
func TestPayloadSizeMatchesEncoder(t *testing.T) {
	for _, p := range allPayloads() {
		buf, err := EncodePayload(p)
		if err != nil {
			t.Fatalf("EncodePayload(%v): %v", p, err)
		}
		if got := PayloadSize(p); got != len(buf) {
			t.Errorf("PayloadSize(%v) = %d, encoder produced %d bytes", p, got, len(buf))
		}
		m := types.Message{From: 127, To: 128, Payload: p}
		mbuf, err := EncodeMessage(m)
		if err != nil {
			t.Fatal(err)
		}
		if got := MessageSize(m); got != len(mbuf) {
			t.Errorf("MessageSize = %d, encoder produced %d bytes", got, len(mbuf))
		}
	}
	if PayloadSize(nil) != 0 {
		t.Error("PayloadSize(nil) must be 0")
	}
}

// TestDecodeAllocs pins the decoders' allocation counts: DecodeStep reads
// its body in place (the reader is a string, so no []byte copy is made) and
// re-encodes into a stack buffer; DecodeBatch makes the command slice and
// nothing else, whatever the command count, since its commands are
// substrings of the body.
func TestDecodeAllocs(t *testing.T) {
	step, err := EncodeStep(types.StepMessage{Round: 12, Step: types.Step3, V: types.One, D: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(100, func() {
		if _, err := DecodeStep(step); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("DecodeStep: %v allocs, want 0", got)
	}
	for _, count := range []int{1, 16, 256} {
		cmds := make([]string, count)
		for i := range cmds {
			cmds[i] = strings.Repeat(string(rune('a'+i%26)), 2048)
		}
		batch, err := EncodeBatch(cmds)
		if err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(100, func() {
			if _, err := DecodeBatch(batch); err != nil {
				t.Fatal(err)
			}
		}); got != 1 {
			t.Errorf("DecodeBatch of %d commands: %v allocs, want 1", count, got)
		}
	}
}

// TestDecodeNeverPanics feeds random bytes to the decoder.
func TestDecodeNeverPanics(t *testing.T) {
	prop := func(buf []byte) bool {
		// Any outcome is fine except a panic, which quick would surface.
		_, _ = DecodePayload(buf)
		_, _ = DecodeMessage(buf)
		_, _ = DecodeStep(string(buf))
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
