package kvserve

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"net"
	"os"
	"slices"
	"testing"
	"time"

	"lazyp/internal/lpstore"
	"lazyp/internal/workloads"
)

// TestWireGolden pins the wire bytes to what the commit before the codec
// moved here (020430e) put on the wire — captured from its EncodeReq,
// EncodeResp and cluster.peerSession.encodeFrame — so a member running
// that build and one running this keep understanding each other's frames.
func TestWireGolden(t *testing.T) {
	const (
		wantReq  = "500403020118171615141312112827262524232221"
		wantResp = "04030201073837363534333231"
		// seq 5; pair 0 untraced, pair 1 traced.
		wantRepl = "420500000002000000000000000100000000000000" +
			"48474645444342415857565554535251" + "68676665646362617877767574737271" +
			"010000008887868584838281"
	)
	pairs := [][2]uint64{{0x4142434445464748, 0x5152535455565758}, {0x6162636465666768, 0x7172737475767778}}
	tids := []uint64{0, 0x8182838485868788}

	req := AppendReq(nil, OpPut, 0x01020304, 0x1112131415161718, 0x2122232425262728)
	if got := hex.EncodeToString(req); got != wantReq {
		t.Errorf("request frame\n got %s\nwant %s", got, wantReq)
	}
	if op, seq, key, val := DecodeReq((*[ReqSize]byte)(req)); op != OpPut || seq != 0x01020304 || key != 0x1112131415161718 || val != 0x2122232425262728 {
		t.Errorf("DecodeReq = %c %#x %#x %#x", op, seq, key, val)
	}
	resp := AppendResp(nil, 0x01020304, StatusMoved, 0x3132333435363738)
	if got := hex.EncodeToString(resp); got != wantResp {
		t.Errorf("response frame\n got %s\nwant %s", got, wantResp)
	}
	if seq, st, val := DecodeResp((*[RespSize]byte)(resp)); seq != 0x01020304 || st != StatusMoved || val != 0x3132333435363738 {
		t.Errorf("DecodeResp = %#x %d %#x", seq, st, val)
	}
	repl := replFrame(5, pairs, tids)
	if got := hex.EncodeToString(repl); got != wantRepl {
		t.Errorf("OpReplBatch frame\n got %s\nwant %s", got, wantRepl)
	}
	op, seq, count, tcount := DecodeReq((*[ReqSize]byte)(repl))
	got, ok := decodeRepl(count, tcount, repl[ReqSize:])
	if op != OpReplBatch || seq != 5 || !ok || len(got) != len(pairs) {
		t.Fatalf("OpReplBatch header = %c seq %d count %d tcount %d, decodes %v to %d pairs", op, seq, count, tcount, ok, len(got))
	}
	for i, p := range pairs {
		if got[i] != [3]uint64{p[0], p[1], tids[i]} {
			t.Errorf("pair %d = %#x", i, got[i])
		}
	}
}

// decodeRepl collects what DecodeReplBatch yields as (key, val, tid).
func decodeRepl(count, tcount uint64, payload []byte) (got [][3]uint64, ok bool) {
	ok = DecodeReplBatch(count, tcount, payload, func(key, val, tid uint64) {
		got = append(got, [3]uint64{key, val, tid})
	})
	return got, ok
}

// FuzzReplBatch: the OpReplBatch payload codec, for arbitrary header
// fields and payload bytes, never panics or reads past the payload,
// accepts exactly the headers owedResponses' hand-written rule accepts,
// and yields one pair per declared pair; what it yields, re-encoded,
// decodes to the same pairs and trace IDs.
func FuzzReplBatch(f *testing.F) {
	pairs := [][2]uint64{{7, 1}, {8, 2}, {0, 3}, {9, 4}}
	for _, tids := range [][]uint64{nil, {0, 0xbeef, 0, 0xcafe}, {1, 2, 3, 4}} {
		fr := replFrame(1, pairs, tids)
		_, _, count, tcount := DecodeReq((*[ReqSize]byte)(fr))
		f.Add(count, tcount, fr[ReqSize:])
		f.Add(count, tcount, fr[ReqSize:len(fr)-1])
	}
	f.Add(uint64(0), uint64(0), []byte{})
	f.Add(uint64(MaxReplBatch+1), uint64(0), []byte{})
	f.Add(uint64(2), uint64(3), make([]byte, 2*ReplPairSize+3*ReplTraceSize))
	descending := replFrame(1, pairs[:2], []uint64{5, 6})
	copy(descending[ReqSize+2*ReplPairSize:], []byte{1, 0, 0, 0}) // entries name pairs 1, 1
	f.Add(uint64(2), uint64(2), descending[ReqSize:])

	f.Fuzz(func(t *testing.T, count, tcount uint64, payload []byte) {
		hdr := AppendReq(nil, OpHello, 0, FeatRepl, 0)
		hdr = AppendReq(hdr, OpReplBatch, 1, count, tcount)
		_, _, fatal, _ := owedResponses(hdr)
		need, okLen := ReplPayloadLen(count, tcount)
		if okLen == fatal {
			t.Fatalf("ReplPayloadLen(%d, %d) ok=%v, the model refuses=%v", count, tcount, okLen, fatal)
		}
		if okLen { // the model's payload ends where the codec's does: whole at need bytes, cut one short
			framed := append(hdr, make([]byte, need)...)
			_, n, _, cut := owedResponses(framed)
			_, _, _, cutShort := owedResponses(framed[:len(framed)-1])
			if n != 2 || cut || !cutShort {
				t.Fatalf("ReplPayloadLen(%d, %d) = %d; at that length the model answers %d frames, cut=%v, one byte short cut=%v", count, tcount, need, n, cut, cutShort)
			}
		}
		got, ok := decodeRepl(count, tcount, payload)
		if ok != (okLen && len(payload) == need) {
			t.Fatalf("DecodeReplBatch(%d, %d, %d bytes) ok=%v; header ok=%v, need %d", count, tcount, len(payload), ok, okLen, need)
		}
		if !ok {
			if len(got) != 0 {
				t.Fatalf("a refused payload yielded %d pairs", len(got))
			}
			return
		}
		if uint64(len(got)) != count {
			t.Fatalf("%d pairs declared, %d yielded", count, len(got))
		}
		again := AppendReplBatch(nil, 1, len(got), func(i int) (key, val, tid uint64) { return got[i][0], got[i][1], got[i][2] })
		_, _, count2, tcount2 := DecodeReq((*[ReqSize]byte)(again))
		got2, ok := decodeRepl(count2, tcount2, again[ReqSize:])
		if !ok || count2 != count || tcount2 > tcount {
			t.Fatalf("re-encoded run: count %d→%d, tcount %d→%d, decodes %v", count, count2, tcount, tcount2, ok)
		}
		if !bytes.Equal(again[ReqSize:ReqSize+int(count)*ReplPairSize], payload[:int(count)*ReplPairSize]) {
			t.Fatal("re-encoded pairs differ from the payload's")
		}
		if !slices.Equal(got, got2) {
			t.Fatalf("round trip: %#x became %#x", got, got2)
		}
	})
}

// TestReplBatchNeedsGrant: an OpReplBatch frame on a connection that was
// never granted FeatRepl ends the connection and applies nothing; after
// the grant the same frame is applied and acked once.
func TestReplBatchNeedsGrant(t *testing.T) {
	s := startServer(t, testCfg(t, lpstore.ModeLP))
	defer s.Close()
	key := workloads.KVKey(9, 1) // not preloaded
	frame := replFrame(3, [][2]uint64{{key, 77}}, nil)

	for _, hello := range []uint64{0, 1} { // never asked; asked for an unassigned bit
		c, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.SetDeadline(time.Now().Add(10 * time.Second))
		var resp [RespSize]byte
		if hello != 0 {
			c.Write(reqFrame(OpHello, 1, hello, 0))
			if _, err := io.ReadFull(c, resp[:]); err != nil {
				t.Fatalf("hello: %v", err)
			}
			if _, st, granted := DecodeResp(&resp); st != StatusOK || granted != 0 {
				t.Fatalf("hello(%#x) answered %s, granted %#x", hello, StatusName(st), granted)
			}
		}
		c.Write(frame)
		// EOF, or a reset when the payload was still unread in the socket.
		if n, err := io.ReadFull(c, resp[:]); n != 0 || err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("ungated OpReplBatch (hello %#x): read %d bytes, err %v; want the connection ended", hello, n, err)
		}
	}
	if _, st, err := dial(t, s.Addr()).Get(key); err != nil || st != StatusNotFound {
		t.Fatalf("Get after the refused runs = %s,%v want not_found", StatusName(st), err)
	}
	if puts := s.Stats().Puts; puts != 0 {
		t.Fatalf("%d puts applied by refused runs", puts)
	}

	c, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(10 * time.Second))
	c.Write(append(reqFrame(OpHello, 1, FeatRepl, 0), frame...))
	var resp [2 * RespSize]byte
	if _, err := io.ReadFull(c, resp[:]); err != nil {
		t.Fatalf("granted run: %v", err)
	}
	if _, st, granted := DecodeResp((*[RespSize]byte)(resp[:])); st != StatusOK || granted != FeatRepl {
		t.Fatalf("hello(FeatRepl) answered %s, granted %#x", StatusName(st), granted)
	}
	if seq, st, _ := DecodeResp((*[RespSize]byte)(resp[RespSize:])); seq != 3 || st != StatusOK {
		t.Fatalf("granted run answered seq %d %s, want 3 ok", seq, StatusName(st))
	}
	if v, st, err := dial(t, s.Addr()).Get(key); err != nil || st != StatusOK || v != 77 {
		t.Fatalf("Get after the granted run = %d,%s,%v want 77,ok", v, StatusName(st), err)
	}
}
