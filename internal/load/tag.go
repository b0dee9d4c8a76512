package load

import (
	"encoding/binary"

	"ssmfp/internal/graph"
)

// Payload tag codec.
//
// Every load-generated message carries its plan coordinates in the
// payload — sequence number, source, intended destination, and the
// scheduled injection instant in Unix nanoseconds — so the latency and
// exactly-once verdict of a delivery are computable from the delivery
// stream alone. No side table has to cross process boundaries, which is
// what lets the same collector serve the in-process LiveNetwork and the
// TCP cluster (whose nodes share the host clock via loopback).
//
// Version 3 (current) is a fixed-width binary layout:
//
//	tag := "lt3:" u32be(seq) u32be(src) u32be(dst) u64be(schedNanos) u32be(holdMicros)
//
// The trailing u32 is the per-hop latency-attribution slot: the
// accumulated *hold* time — higher-layer queueing at the source (R1 wait)
// plus parked-offer waits at congested hops — in microseconds, saturating.
// Nodes fold wait time in with AddHold at the two per-message rewrite
// points (accepting a send into bufR, accepting a parked offer); the
// collector reads it with ParseTagHold and attributes the rest of the
// end-to-end latency to wire transfer and destination-side delivery. One
// u32 slot keeps the tag compact; microsecond resolution saturates at
// ~71 minutes, far beyond any latency this system measures.
//
// Encoding is one string conversion; parsing is fixed-offset reads with
// zero allocations. A payload that is not a well-formed v3 tag is
// untagged traffic: a load message whose tag was mangled on the way is
// still judged, by its plan sequence number, as never delivered.
//
// The parser rejects out-of-range fields: a corrupted or hostile payload
// must not cast into a bogus graph.ProcessID and misattribute a delivery.

// tagPrefixV3 opens every tag EncodeTag writes.
const tagPrefixV3 = "lt3:"

// warmupPrefix tags warmup traffic: counted on arrival so the driver can
// wait for the deployment to be hot, but excluded from the histogram and
// the exactly-once verdict.
const warmupPrefix = "lw1:"

// tagV3Len is the exact tag length: prefix, seq, src, dst, sched, holdMicros.
const tagV3Len = 4 + 4 + 4 + 4 + 8 + 4

// holdOffset locates the hold slot inside a v3 tag.
const holdOffset = 24

// maxTagField bounds seq/src/dst: values beyond int32 are rejected, not
// cast.
const maxTagField = 1<<31 - 1

// EncodeTag renders the load payload for plan entry seq: source, intended
// destination, and the scheduled injection instant in Unix nanoseconds.
// The hold slot starts at zero; nodes accumulate into it with AddHold.
// The scheduled (not actual) instant is the open-loop anti-coordinated-
// omission guarantee: a send delayed by backpressure counts that delay as
// latency instead of silently shifting the schedule. Fields outside
// [0, 2³¹) panic — plan indices and processor IDs never get there.
func EncodeTag(seq int, src, dst graph.ProcessID, schedNanos int64) string {
	if seq < 0 || seq > maxTagField || src < 0 || int(src) > maxTagField ||
		dst < 0 || int(dst) > maxTagField || schedNanos < 0 {
		panic("load: tag field out of range")
	}
	var b [tagV3Len]byte
	copy(b[:4], tagPrefixV3)
	binary.BigEndian.PutUint32(b[4:8], uint32(seq))
	binary.BigEndian.PutUint32(b[8:12], uint32(src))
	binary.BigEndian.PutUint32(b[12:16], uint32(dst))
	binary.BigEndian.PutUint64(b[16:24], uint64(schedNanos))
	// b[24:28] stays zero: no hold accumulated yet.
	return string(b[:])
}

// ParseTag decodes a payload written by EncodeTag; ok is false for
// anything else (untagged traffic sharing the network, or a malformed
// tag). It performs no allocation.
func ParseTag(payload string) (seq int, src, dst graph.ProcessID, schedNanos int64, ok bool) {
	if len(payload) != tagV3Len || payload[:4] != tagPrefixV3 {
		return 0, 0, 0, 0, false
	}
	s := binary.BigEndian.Uint32([]byte(payload[4:8]))
	sr := binary.BigEndian.Uint32([]byte(payload[8:12]))
	ds := binary.BigEndian.Uint32([]byte(payload[12:16]))
	sch := binary.BigEndian.Uint64([]byte(payload[16:24]))
	if s > maxTagField || sr > maxTagField || ds > maxTagField || sch > 1<<63-1 {
		return 0, 0, 0, 0, false
	}
	return int(s), graph.ProcessID(sr), graph.ProcessID(ds), int64(sch), true
}

// ParseTagHold reads the accumulated hold time out of a v3 tag, in
// nanoseconds (the slot stores saturating microseconds). ok is false for
// anything that is not a well-formed v3 tag. No allocation.
func ParseTagHold(payload string) (holdNanos int64, ok bool) {
	if len(payload) != tagV3Len || payload[:4] != tagPrefixV3 {
		return 0, false
	}
	us := binary.BigEndian.Uint32([]byte(payload[holdOffset : holdOffset+4]))
	return int64(us) * 1000, true
}

// AddHold folds waitNanos of hold time into a v3 tag's attribution slot,
// returning the rewritten payload; ok is false (payload returned
// unchanged) for non-v3 payloads, so nodes can stamp blindly. The slot
// saturates at its u32 capacity rather than wrapping. One string
// allocation per call — callers invoke it per message at bounded rewrite
// points (R1 acceptance, parked-offer acceptance), never per frame.
func AddHold(payload string, waitNanos int64) (string, bool) {
	if len(payload) != tagV3Len || payload[:4] != tagPrefixV3 {
		return payload, false
	}
	if waitNanos < 0 {
		waitNanos = 0
	}
	var b [tagV3Len]byte
	copy(b[:], payload)
	cur := uint64(binary.BigEndian.Uint32(b[holdOffset : holdOffset+4]))
	next := cur + uint64(waitNanos/1000)
	if next > 1<<32-1 {
		next = 1<<32 - 1
	}
	binary.BigEndian.PutUint32(b[holdOffset:holdOffset+4], uint32(next))
	return string(b[:]), true
}
