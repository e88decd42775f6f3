package store

import "github.com/pseudo-honeypot/pseudohoneypot/internal/codec"

// Sim-hours journal records let twitterd fast-forward its deterministic
// engine across restarts: each record is the number of simulated hours
// advanced, and recovery sums them. The payload shares the store's
// record sequence space (uvarint seq, then uvarint hours) so segment
// naming and checkpoint coverage work identically for both record types.

func encodeSimHours(buf []byte, seq uint64, hours int) []byte {
	buf = codec.AppendUvarint(buf, seq)
	return codec.AppendUvarint(buf, uint64(hours))
}

func decodeSimHours(payload []byte) (seq uint64, hours int, err error) {
	d := codec.NewDecoder(payload)
	seq = d.Uvarint()
	h := d.Uvarint()
	if err := d.Finish("sim-hours record"); err != nil {
		return 0, 0, err
	}
	return seq, int(h), nil
}
