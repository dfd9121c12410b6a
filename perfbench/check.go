package main

import (
	"fmt"
	"strings"

	"clientlog/internal/msg"
	"clientlog/internal/page"
)

// checkResult is the verdict of the final-state check.
type checkResult struct {
	objects int      // written objects verified
	misses  []string // one line per object holding a wrong value
}

// checkFinalState quiesces the cluster and reads back every object a
// committed transaction wrote.  Each must hold the last committed value
// of one of its writers (for an object with a single writer: that
// writer's last committed value), and never a value of an aborted
// attempt.  The drivers must be idle.
func checkFinalState(sys *system, ds []*driver) (checkResult, error) {
	// Ship every dirty page so the server merges all committed updates
	// into its copies.
	for i, c := range sys.clients {
		if err := c.FlushCache(); err != nil {
			return checkResult{}, fmt.Errorf("flush client %d: %w", i, err)
		}
	}
	var res checkResult
	objs := ds[0].objs
	for pi, pid := range sys.ids {
		var pg *page.Page
		for slot := 0; slot < objs; slot++ {
			i := pi*objs + slot
			writers := 0
			for _, d := range ds {
				if d.last[i] != 0 {
					writers++
				}
			}
			if writers == 0 {
				continue
			}
			if pg == nil {
				reply, err := sys.server.Fetch(msg.FetchReq{Page: pid})
				if err != nil {
					return res, fmt.Errorf("read back page %d: %w", pid, err)
				}
				pg = new(page.Page)
				if err := pg.UnmarshalBinary(reply.Image); err != nil {
					return res, fmt.Errorf("decode page %d: %w", pid, err)
				}
			}
			res.objects++
			obj := page.ObjectID{Page: pid, Slot: uint16(slot)}
			data, _ := pg.Read(obj.Slot)
			if why := judge(ds, i, obj, data); why != "" {
				res.misses = append(res.misses, fmt.Sprintf("object %d.%d %s; last committed: %s",
					obj.Page, obj.Slot, why, lastWriters(ds, i)))
			}
		}
	}
	return res, nil
}

// judge returns why data is not an acceptable final value of object i,
// or "" when it is.
func judge(ds []*driver, i int, obj page.ObjectID, data []byte) string {
	got, drv, seq, ok := decodeValue(data, ds[0].seed)
	switch {
	case !ok:
		return "holds bytes no transaction wrote (update lost)"
	case got != obj:
		return fmt.Sprintf("holds the value written to object %d.%d", got.Page, got.Slot)
	case drv >= len(ds):
		return fmt.Sprintf("holds a value of unknown driver %d", drv)
	case !ds[drv].isCommitted(seq):
		return fmt.Sprintf("holds driver %d's value from aborted attempt %d", drv, seq)
	case ds[drv].last[i] != seq:
		return fmt.Sprintf("holds driver %d's stale value from attempt %d", drv, seq)
	}
	return ""
}

func lastWriters(ds []*driver, i int) string {
	var parts []string
	for _, d := range ds {
		if d.last[i] != 0 {
			parts = append(parts, fmt.Sprintf("driver %d attempt %d", d.idx, d.last[i]))
		}
	}
	return strings.Join(parts, ", ")
}
