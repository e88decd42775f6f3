package textutil

import "strings"

// ClassSeq is ClassSeqWithRunLengths without the run lengths: one class
// symbol per maximal run, so "John_Doe99" → "UlPUlN".
func ClassSeq(name string) string {
	var b strings.Builder
	var prev byte
	for _, r := range name {
		c := classOf(r)
		if c == prev {
			continue
		}
		b.WriteByte(c)
		prev = c
	}
	return b.String()
}
