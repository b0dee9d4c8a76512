package load

import (
	"math/rand"
	"strings"
	"testing"

	"ssmfp/internal/graph"
)

// Literal tags of the two earlier formats, which this build no longer
// encodes or decodes: v2 is the v3 layout without the hold slot, v1 the
// colon-separated decimal text form. Both encode (seq 1, src 2, dst 3,
// sched 4).
const (
	tagV1Fixture = "lt1:1:2:3:4"
	tagV2Fixture = "lt2:\x00\x00\x00\x01\x00\x00\x00\x02\x00\x00\x00\x03\x00\x00\x00\x00\x00\x00\x00\x04"
)

// TestTagRoundTripProperty drives the v3 codec across a seeded sample of
// the field space: every encodable tuple decodes to itself, the encoding
// is the documented fixed width, and a fresh tag carries zero hold.
func TestTagRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := [][4]int64{
		{0, 0, 1, 0},
		{maxTagField, maxTagField, maxTagField, 1<<63 - 1},
		{1, 2, 3, 4},
	}
	for i := 0; i < 500; i++ {
		cases = append(cases, [4]int64{
			rng.Int63n(maxTagField + 1),
			rng.Int63n(maxTagField + 1),
			rng.Int63n(maxTagField + 1),
			rng.Int63(),
		})
	}
	for _, c := range cases {
		tag := EncodeTag(int(c[0]), graph.ProcessID(c[1]), graph.ProcessID(c[2]), c[3])
		if len(tag) != tagV3Len {
			t.Fatalf("EncodeTag%v produced %d bytes, want %d", c, len(tag), tagV3Len)
		}
		seq, src, dst, sched, ok := ParseTag(tag)
		if !ok || int64(seq) != c[0] || int64(src) != c[1] || int64(dst) != c[2] || sched != c[3] {
			t.Fatalf("round trip of %v gave (%d,%d,%d,%d,%v)", c, seq, src, dst, sched, ok)
		}
		if hold, ok := ParseTagHold(tag); !ok || hold != 0 {
			t.Fatalf("fresh tag carries hold (%d,%v), want (0,true)", hold, ok)
		}
	}
}

// TestAddHold pins the attribution slot: accumulation across rewrite
// points, microsecond truncation, u32 saturation, and pass-through of
// payloads that carry no v3 tag.
func TestAddHold(t *testing.T) {
	tag := EncodeTag(7, 1, 2, 123456789)

	t1, ok := AddHold(tag, 1_500_000) // 1.5ms -> 1500us
	if !ok {
		t.Fatal("AddHold rejected a v3 tag")
	}
	if h, _ := ParseTagHold(t1); h != 1_500_000 {
		t.Fatalf("hold after first stamp = %dns, want 1500000", h)
	}
	t2, _ := AddHold(t1, 2_000_999) // +2000us (sub-microsecond truncated)
	if h, _ := ParseTagHold(t2); h != 3_500_000 {
		t.Fatalf("hold after second stamp = %dns, want 3500000", h)
	}
	// The plan coordinates survive the rewrites untouched.
	seq, src, dst, sched, ok := ParseTag(t2)
	if !ok || seq != 7 || src != 1 || dst != 2 || sched != 123456789 {
		t.Fatalf("AddHold corrupted coordinates: (%d,%d,%d,%d,%v)", seq, src, dst, sched, ok)
	}

	// Saturation, not wraparound.
	sat, _ := AddHold(tag, (1<<40)*1000)
	if h, _ := ParseTagHold(sat); h != (1<<32-1)*1000 {
		t.Fatalf("saturated hold = %d, want u32 max in nanos", h)
	}
	sat2, _ := AddHold(sat, 1_000_000)
	if h, _ := ParseTagHold(sat2); h != (1<<32-1)*1000 {
		t.Fatalf("post-saturation stamp moved the slot: %d", h)
	}

	// Negative waits clamp to zero (clock weirdness must not panic or wrap).
	neg, ok := AddHold(tag, -5)
	if !ok {
		t.Fatal("AddHold rejected a negative wait")
	}
	if h, _ := ParseTagHold(neg); h != 0 {
		t.Fatalf("negative wait produced hold %d", h)
	}

	// Foreign payloads pass through unchanged: nodes stamp blindly.
	for _, foreign := range []string{"", "hello", tagV2Fixture, tagV1Fixture, "lw1:w3"} {
		got, ok := AddHold(foreign, 1000)
		if ok || got != foreign {
			t.Errorf("AddHold(%q) = (%q,%v), want unchanged pass-through", foreign, got, ok)
		}
		if _, ok := ParseTagHold(foreign); ok {
			t.Errorf("ParseTagHold(%q) accepted a non-v3 payload", foreign)
		}
	}
}

func TestEncodeTagRejectsOutOfRange(t *testing.T) {
	cases := [][4]int64{
		{-1, 0, 1, 0},
		{0, -1, 1, 0},
		{0, 0, -1, 0},
		{0, 0, 1, -1},
		{maxTagField + 1, 0, 1, 0},
		{0, maxTagField + 1, 1, 0},
		{0, 0, maxTagField + 1, 0},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("EncodeTag%v did not panic", c)
				}
			}()
			EncodeTag(int(c[0]), graph.ProcessID(c[1]), graph.ProcessID(c[2]), c[3])
		}()
	}
}

func TestParseTagRejectsMalformed(t *testing.T) {
	good := EncodeTag(1, 2, 3, 4)
	bad := []string{
		"",
		"lt3:",
		good[:tagV3Len-1], // truncated
		good + "x",        // trailing byte
		"lt2:" + good[4:], // right width, prior version magic
		"xx3:" + good[4:], // right width, wrong magic
		tagV2Fixture,      // well-formed v2 is not v3
		tagV1Fixture,
		"lt1:-1:-7:2:0", // hostile v1 text never casts into a ProcessID
		"lt1:2147483648:0:1:0",
		strings.Repeat("z", tagV3Len),
	}
	for _, b := range bad {
		if _, _, _, _, ok := ParseTag(b); ok {
			t.Errorf("ParseTag(%q) accepted a malformed payload", b)
		}
	}
}

// TestParseTagV1RejectsNegativeAndOverflow keeps the regression cases of
// the old text v1 parser, whose strconv.Atoi accepted negative seq/src/dst
// (and int32 overflow of process IDs) and cast them into graph.ProcessID.
// The v1 codec is gone; the same hostile literals must now be refused by
// every decoder that is left, so a node that receives one treats it as
// untagged traffic instead of decoding it.
func TestParseTagV1RejectsNegativeAndOverflow(t *testing.T) {
	bad := []string{
		"lt1:-1:0:1:0",
		"lt1:0:-7:1:0",
		"lt1:0:0:-2:0",
		"lt1:0:0:1:-5",                  // negative schedule instant
		"lt1:2147483648:0:1:0",          // seq beyond int32
		"lt1:0:2147483648:1:0",          // src beyond int32
		"lt1:0:0:2147483648:0",          // dst beyond int32
		"lt1:9223372036854775808:0:1:0", // beyond int64
		"lt1:1:2:3",                     // missing field
		"lt1:1:2:3:4:5",                 // extra field
		"lt1:x:2:3:4",
		"lt1:1:2:3:y",
	}
	for _, b := range bad {
		if seq, src, dst, _, ok := ParseTag(b); ok {
			t.Errorf("ParseTag(%q) accepted (%d,%d,%d)", b, seq, src, dst)
		}
		if _, ok := ParseTagHold(b); ok {
			t.Errorf("ParseTagHold(%q) accepted a v1 payload", b)
		}
		if got, ok := AddHold(b, 1000); ok || got != b {
			t.Errorf("AddHold(%q) = (%q,%v), want unchanged pass-through", b, got, ok)
		}
	}
}

// TestParseTagV2Fixture pins the prior binary format, the one most easily
// mistaken for v3: a v2 tag has no hold slot and is refused by every v3
// codec entry point.
func TestParseTagV2Fixture(t *testing.T) {
	if len(tagV2Fixture) != tagV3Len-4 {
		t.Fatalf("v2 fixture is %d bytes, want %d", len(tagV2Fixture), tagV3Len-4)
	}
	if _, _, _, _, ok := ParseTag(tagV2Fixture); ok {
		t.Fatal("v3 parser accepted a v2 tag")
	}
	if _, ok := ParseTagHold(tagV2Fixture); ok {
		t.Fatal("v3 hold parser accepted a v2 tag")
	}
}

// TestParseTagAllocFree pins the hot-path contract: decoding a delivery
// tag (coordinates and hold slot) performs zero allocations.
func TestParseTagAllocFree(t *testing.T) {
	tag, _ := AddHold(EncodeTag(7, 1, 2, 123456789), 5000)
	if allocs := testing.AllocsPerRun(200, func() {
		if _, _, _, _, ok := ParseTag(tag); !ok {
			t.Fatal("parse failed")
		}
		if _, ok := ParseTagHold(tag); !ok {
			t.Fatal("hold parse failed")
		}
	}); allocs > 0 {
		t.Fatalf("tag decode allocates %.1f times per call, want 0", allocs)
	}
}

// FuzzParseTag holds the parser to totality and round-trip identity:
// arbitrary payloads either fail to parse or parse into fields that —
// after re-applying the decoded hold — re-encode to the identical
// payload. Corpus entries from the v1 and v2 eras remain valid inputs;
// they exercise the rejection path.
func FuzzParseTag(f *testing.F) {
	f.Add(EncodeTag(0, 0, 1, 0))
	f.Add(EncodeTag(maxTagField, maxTagField, maxTagField, 1<<63-1))
	f.Add(EncodeTag(42, 3, 7, 1234567890123))
	f.Add(func() string { s, _ := AddHold(EncodeTag(42, 3, 7, 1234567890123), 5_000_000); return s }())
	f.Add(tagV2Fixture)
	f.Add(tagV1Fixture)
	f.Add("lt1:-1:-7:2:0")
	f.Add("lt2:1:2:3:4")
	f.Add("lw1:w17")
	f.Add("")
	f.Fuzz(func(t *testing.T, payload string) {
		if seq, src, dst, sched, ok := ParseTag(payload); ok {
			// EncodeTag writes a zero hold slot; folding the decoded hold
			// back in must reproduce the input byte for byte. ParseTagHold
			// returns whole microseconds as nanos, so no truncation loss.
			hold, hok := ParseTagHold(payload)
			if !hok {
				t.Fatalf("v3 tag %q parsed but ParseTagHold refused it", payload)
			}
			back, _ := AddHold(EncodeTag(seq, src, dst, sched), hold)
			if back != payload {
				t.Fatalf("v3 re-encode mismatch: %q -> %q", payload, back)
			}
		}
	})
}
