package kvserve

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"

	"lazyp/internal/lpstore"
	"lazyp/internal/workloads"
)

// owedResponses walks data the way connReader frames it. It returns how
// many responses each seq is owed (every complete frame but an
// OpTraceCtx prefix owes one; an OpReplBatch run owes one for the run),
// their total, and how the walk ended: fatal when a frame makes the
// server drop the connection (an OpReplBatch header it refuses, or any
// OpReplBatch before an OpHello was granted FeatRepl), cut when the input
// ends inside an OpReplBatch payload — the server then waits for the
// rest, holding back what its response batch had gathered. The header
// rule is written out here, not shared with the codec: it is the model
// FuzzReplBatch checks ReplPayloadLen against.
func owedResponses(data []byte) (owed map[uint32]int, n int, fatal, cut bool) {
	owed = make(map[uint32]int)
	var granted uint64
	for len(data) >= ReqSize {
		op, seq, key, val := DecodeReq((*[ReqSize]byte)(data))
		data = data[ReqSize:]
		switch op {
		case OpTraceCtx:
			continue
		case OpHello:
			granted = key
		case OpReplBatch:
			if granted&FeatRepl == 0 || key == 0 || key > MaxReplBatch || val > key {
				return owed, n, true, false
			}
			need := int(key)*ReplPairSize + int(val)*ReplTraceSize
			if len(data) < need {
				return owed, n, false, true
			}
			data = data[need:]
		}
		owed[seq]++
		n++
	}
	return owed, n, false, false
}

func reqFrame(op byte, seq uint32, key, val uint64) []byte {
	return AppendReq(nil, op, seq, key, val)
}

// replFrame encodes an OpReplBatch run of the given pairs, tracing pair
// i with tids[i] when that is nonzero.
func replFrame(seq uint32, pairs [][2]uint64, tids []uint64) []byte {
	return AppendReplBatch(nil, seq, len(pairs), func(i int) (key, val, tid uint64) {
		if i < len(tids) {
			tid = tids[i]
		}
		return pairs[i][0], pairs[i][1], tid
	})
}

// FuzzConnReader feeds arbitrary bytes to a connection served by
// connReader/connWriter over a net.Pipe, behind it a started server's
// owners, flushers and write-back. Whatever arrives: no panic; every
// complete frame that is not an OpTraceCtx prefix is answered exactly
// once, under its own seq; only an OpReplBatch the server refuses — its
// header, or the lack of a FeatRepl grant — makes it end the connection
// (a cut payload just waits); and once the connection is gone no mailbox
// is left holding a request of it.
func FuzzConnReader(f *testing.F) {
	k := func(i int) uint64 { return workloads.KVKey(0, i) }
	for _, op := range []byte{OpGet, OpPut, OpPing, OpHello, 'R', 'X'} {
		f.Add(reqFrame(op, 7, k(1), 9))
	}
	f.Add(append(reqFrame(OpTraceCtx, 1, 0xabc, 0), reqFrame(OpPut, 1, k(2), 5)...))
	var mix []byte
	for i := 0; i < 300; i++ {
		op := byte(OpGet)
		if i%3 != 0 {
			op = OpPut
		}
		mix = append(mix, reqFrame(op, uint32(i), k(i%40), uint64(i))...)
	}
	f.Add(mix)
	pairs := [][2]uint64{{k(1), 1}, {k(2), 2}, {0, 3}, {k(3), 4}}
	f.Add(replFrame(3, pairs, nil))
	f.Add(append(reqFrame(OpPut, 2, k(9), 1), replFrame(3, pairs, []uint64{0, 0xbeef, 0, 0xcafe})...))
	f.Add(reqFrame(OpReplBatch, 4, MaxReplBatch+1, 0))                                   // refused: too long
	f.Add(reqFrame(OpReplBatch, 5, 2, 3))                                                // refused: more trace entries than pairs
	f.Add(append(reqFrame(OpGet, 8, k(1), 0), replFrame(6, pairs, nil)[:ReqSize+20]...)) // cut payload
	// The seeds above send OpReplBatch on a plain connection, which ends
	// it; these ask for FeatRepl first.
	hello := reqFrame(OpHello, 1, FeatRepl|1, 0)
	cat := func(frames ...[]byte) []byte { return bytes.Join(frames, nil) }
	f.Add(cat(hello, replFrame(3, pairs, nil)))
	f.Add(cat(hello, reqFrame(OpPut, 2, k(9), 1), replFrame(3, pairs, []uint64{0, 0xbeef, 0, 0xcafe})))
	f.Add(cat(hello, reqFrame(OpReplBatch, 5, 2, 3)))                       // refused: more trace entries than pairs
	f.Add(cat(hello, replFrame(6, pairs, nil)[:ReqSize+20]))                // cut payload
	f.Add(cat(hello, reqFrame(OpHello, 2, 1, 0), replFrame(7, pairs, nil))) // the grant given back
	// The all-ones key was the pad records' until ISSUE 24; it is a key.
	f.Add(cat(reqFrame(OpPut, 7, ^uint64(0), 9), reqFrame(OpGet, 8, ^uint64(0), 0)))
	f.Add(cat(hello, replFrame(8, [][2]uint64{{^uint64(0), 1}, {k(4), 2}}, nil)))

	cfg := Config{
		Path: f.TempDir() + "/kv.img", Mode: lpstore.ModeLP, Shards: 2, Capacity: 1 << 10,
		MaxOps: 1 << 12, BatchK: 16, Streams: 2, Keys: 128, Mailbox: 8, BatchWait: 200 * time.Microsecond,
	}
	s, err := New(cfg)
	if err != nil {
		f.Fatalf("New: %v", err)
	}
	if err := s.Start(); err != nil { // the listener idles: connections come by pipe
		f.Fatalf("Start: %v", err)
	}
	f.Cleanup(func() { s.Close() })

	f.Fuzz(func(t *testing.T, data []byte) {
		owed, n, fatal, cut := owedResponses(data)
		srvEnd, cliEnd := net.Pipe()
		cn := newSrvConn(srvEnd)
		s.wgConns.Add(2)
		go s.connReader(cn)
		go s.connWriter(cn)
		go cliEnd.Write(data) // returns once the server read it all, or the pipe closed

		seqs := make(chan uint32)
		go func() {
			defer close(seqs)
			var r [RespSize]byte
			for {
				if _, err := io.ReadFull(cliEnd, r[:]); err != nil {
					return
				}
				seq, _, _ := DecodeResp(&r)
				seqs <- seq
			}
		}()
		// recv takes the next response within d, checking it is owed;
		// open goes false when the server ended the connection.
		got, open := 0, true
		recv := func(d time.Duration) (quiet bool) {
			select {
			case seq, ok := <-seqs:
				if open = ok; !ok {
					return false
				}
				if owed[seq] == 0 {
					t.Fatalf("response %d carries seq %d, which is owed none (%d owed in all)", got+1, seq, n)
				}
				owed[seq]--
				got++
				return false
			case <-time.After(d):
				return true
			}
		}
		switch {
		case fatal: // the server must end the connection itself
			for open {
				if recv(10 * time.Second) {
					t.Fatalf("a refused OpReplBatch did not end the connection (%d responses)", got)
				}
			}
		case cut: // the payload never completes: take what comes, then go on
			for open && !recv(5*time.Millisecond) {
			}
		default:
			for open && got < n {
				if recv(10 * time.Second) {
					t.Fatalf("%d of %d owed responses after 10 s", got, n)
				}
			}
			if open {
				recv(2 * time.Millisecond) // a surplus response is owed nothing: recv fails on it
			}
		}
		if !fatal && !open {
			t.Fatalf("the server ended the connection after %d of %d responses; no frame asked for that", got, n)
		}
		cliEnd.Close()
		for range seqs {
		}
		s.wgConns.Wait()
		holds := func() bool {
			for _, sd := range s.shards {
				sd.mb.mu.Lock()
				for i := range sd.mb.q {
					if sd.mb.q[i].cn == cn {
						sd.mb.mu.Unlock()
						return true
					}
				}
				sd.mb.mu.Unlock()
			}
			return false
		}
		for deadline := time.Now().Add(5 * time.Second); holds(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("a mailbox still holds a request of the closed connection")
			}
		}
	})
}
