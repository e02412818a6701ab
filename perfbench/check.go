package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"

	"dtmsvs"
)

// appendRecord appends a canonical byte encoding of r: every integer
// field as int64 and every float field as its IEEE-754 bits, little
// endian. Two records are byte-identical when their encodings are.
func appendRecord(dst []byte, r dtmsvs.TraceRecord) []byte {
	for _, v := range []int{r.BS, r.Interval, r.GroupID, r.Size, r.AllocatedRBs} {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(v)))
	}
	for _, v := range []float64{
		r.PredictedRBs, r.ActualRBs,
		r.PredictedCycles, r.ActualCycles,
		r.PredictedBits, r.ActualBits,
		r.PredictedWasteBits, r.ActualWasteBits,
		r.ActualEngagementS, r.WorstSNRdB, r.BitrateBps,
	} {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

func encodeRecords(recs []dtmsvs.TraceRecord) []byte {
	var b []byte
	for _, r := range recs {
		b = appendRecord(b, r)
	}
	return b
}

// digest identifies a whole trace: equal digests mean byte-identical
// record streams.
func digest(recs []dtmsvs.TraceRecord) string {
	sum := sha256.Sum256(encodeRecords(recs))
	return fmt.Sprintf("%x", sum[:8])
}

// checkRecords verifies one pass's trace: interval ids contiguous from
// 0 to intervals-1 in step order, group sizes summing to the
// population in every interval, and every RB, cycle and bit field
// finite and non-negative.
func checkRecords(recs []dtmsvs.TraceRecord, intervals, users int) error {
	sizes := make([]int, intervals)
	next := 0
	for i, r := range recs {
		switch {
		case r.Interval == next:
			next++
		case r.Interval != next-1:
			return fmt.Errorf("record %d: interval %d out of order (expected %d or %d)", i, r.Interval, next-1, next)
		}
		sizes[r.Interval] += r.Size
		if r.AllocatedRBs < 0 {
			return fmt.Errorf("record %d: allocated RBs %d < 0", i, r.AllocatedRBs)
		}
		for _, f := range []struct {
			name string
			v    float64
		}{
			{"predictedRBs", r.PredictedRBs}, {"actualRBs", r.ActualRBs},
			{"predictedCycles", r.PredictedCycles}, {"actualCycles", r.ActualCycles},
			{"predictedBits", r.PredictedBits}, {"actualBits", r.ActualBits},
			{"predictedWasteBits", r.PredictedWasteBits}, {"actualWasteBits", r.ActualWasteBits},
		} {
			if math.IsNaN(f.v) || math.IsInf(f.v, 0) || f.v < 0 {
				return fmt.Errorf("record %d (interval %d, group %d): %s = %v", i, r.Interval, r.GroupID, f.name, f.v)
			}
		}
	}
	if next != intervals {
		return fmt.Errorf("trace covers intervals 0..%d, want 0..%d", next-1, intervals-1)
	}
	for iv, n := range sizes {
		if n != users {
			return fmt.Errorf("interval %d: group sizes sum to %d, want %d users", iv, n, users)
		}
	}
	return nil
}

// checkStream verifies that the bytes a BinarySink streamed decode,
// through the format-detecting reader, to exactly the records the
// Steps returned.
func checkStream(stream []byte, want []dtmsvs.TraceRecord) error {
	got, err := dtmsvs.ReadTraceRecords(bytes.NewReader(stream))
	if err != nil {
		return fmt.Errorf("decode streamed trace: %w", err)
	}
	if len(got) != len(want) {
		return fmt.Errorf("streamed trace has %d records, steps returned %d", len(got), len(want))
	}
	if !bytes.Equal(encodeRecords(got), encodeRecords(want)) {
		return fmt.Errorf("streamed trace differs from the records the steps returned")
	}
	return nil
}
