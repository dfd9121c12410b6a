package wal

import (
	"math/rand"
	"os"
	"reflect"
	"testing"
	"testing/quick"

	"clientlog/internal/ident"
	"clientlog/internal/page"
)

func openRW(path string) (*os.File, error) {
	return os.OpenFile(path, os.O_RDWR, 0o644)
}

func randBytes(r *rand.Rand, max int) []byte {
	n := r.Intn(max + 1)
	if n == 0 {
		return nil
	}
	b := make([]byte, n)
	r.Read(b)
	return b
}

func randRecord(r *rand.Rand) Record {
	txn := ident.MakeTxnID(ident.ClientID(r.Uint32()), r.Uint32())
	switch r.Intn(9) {
	case 0:
		return &Update{TxnID: txn, PrevLSN: LSN(r.Uint64()), Page: page.ID(r.Uint64()),
			Slot: uint16(r.Uint32()), PSN: page.PSN(r.Uint64()),
			Op: OpKind(1 + r.Intn(4)), Offset: r.Uint32(),
			Before: randBytes(r, 64), After: randBytes(r, 64)}
	case 1:
		return &Logical{TxnID: txn, PrevLSN: LSN(r.Uint64()), Page: page.ID(r.Uint64()),
			Slot: uint16(r.Uint32()), PSN: page.PSN(r.Uint64()), Delta: int64(r.Uint64())}
	case 2:
		return &CLR{TxnID: txn, PrevLSN: LSN(r.Uint64()), Page: page.ID(r.Uint64()),
			Slot: uint16(r.Uint32()), PSN: page.PSN(r.Uint64()),
			Op: OpKind(1 + r.Intn(6)), Offset: r.Uint32(), After: randBytes(r, 64),
			Delta: int64(r.Uint64()), UndoNext: LSN(r.Uint64())}
	case 3:
		return &Commit{TxnID: txn, PrevLSN: LSN(r.Uint64())}
	case 4:
		return &Abort{TxnID: txn, PrevLSN: LSN(r.Uint64())}
	case 5:
		cp := &Checkpoint{}
		for i := 0; i < r.Intn(5); i++ {
			cp.Active = append(cp.Active, TxnInfo{
				ID: txn, FirstLSN: LSN(r.Uint64()), LastLSN: LSN(r.Uint64())})
		}
		for i := 0; i < r.Intn(8); i++ {
			cp.DPT = append(cp.DPT, DPTEntry{Page: page.ID(r.Uint64()), RedoLSN: LSN(r.Uint64())})
		}
		return cp
	case 6:
		return &Callback{
			Object:    page.ObjectID{Page: page.ID(r.Uint64()), Slot: uint16(r.Uint32())},
			Responder: ident.ClientID(r.Uint32()), PSN: page.PSN(r.Uint64())}
	case 7:
		rep := &Replacement{Page: page.ID(r.Uint64()), PagePSN: page.PSN(r.Uint64())}
		for i := 0; i < r.Intn(6); i++ {
			rep.Entries = append(rep.Entries, ReplEntry{
				Client: ident.ClientID(r.Uint32()), PSN: page.PSN(r.Uint64())})
		}
		return rep
	default:
		sc := &ServerCheckpoint{}
		for i := 0; i < r.Intn(6); i++ {
			sc.DCT = append(sc.DCT, DCTEntry{Page: page.ID(r.Uint64()),
				Client: ident.ClientID(r.Uint32()), PSN: page.PSN(r.Uint64()),
				RedoLSN: LSN(r.Uint64())})
		}
		return sc
	}
}

func TestPropCodecRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rec := randRecord(r)
		enc := Encode(rec)
		if len(enc) != EncodedSize(rec) || cap(enc) != len(enc) {
			return false
		}
		dec, err := Decode(enc)
		return err == nil && reflect.DeepEqual(rec, dec)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPropScanSeesEveryAppendedRecord(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		l := NewLog(NewMemStore(0))
		n := 1 + r.Intn(40)
		var want []Record
		for i := 0; i < n; i++ {
			rec := randRecord(r)
			if _, err := l.Append(rec); err != nil {
				return false
			}
			want = append(want, rec)
		}
		sc := l.Scan(NilLSN)
		i := 0
		for sc.Next() {
			if i >= len(want) || !reflect.DeepEqual(sc.Record(), want[i]) {
				return false
			}
			i++
		}
		return sc.Err() == nil && i == len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPropCrashKeepsDurablePrefix(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		st := NewMemStore(0)
		l := NewLog(st)
		var lsns []LSN
		var forced LSN
		for i := 0; i < 1+r.Intn(30); i++ {
			lsn, err := l.Append(randRecord(r))
			if err != nil {
				return false
			}
			lsns = append(lsns, lsn)
			if r.Intn(3) == 0 {
				if err := l.Force(lsn); err != nil {
					return false
				}
				forced = lsn
			}
		}
		st.Crash()
		for _, lsn := range lsns {
			_, _, err := l.Read(lsn)
			if lsn <= forced && err != nil {
				return false // durable record lost
			}
			if lsn > forced && err == nil {
				return false // volatile record survived
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
