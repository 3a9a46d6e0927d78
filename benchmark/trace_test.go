package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

func TestSelfTimeOverlappingLegs(t *testing.T) {
	// A proxy handler with three concurrent replica legs, each calling a
	// backend handler: the legs' union, not their sum, is covered.
	spans := []Span{
		{Name: "proxy.handler.add", ID: 1, Start: 0, End: 100},
		{Name: "proxy.leg", ID: 2, Parent: 1, Start: 10, End: 60},
		{Name: "proxy.leg", ID: 3, Parent: 1, Start: 20, End: 80},
		{Name: "proxy.leg", ID: 4, Parent: 1, Start: 30, End: 50},
		{Name: "sumdsrv.handler.keyed_partial", ID: 5, Parent: 2, Start: 15, End: 55},
	}
	self := SelfTimes(spans)
	want := map[uint64]int64{1: 100 - 70, 2: 50 - 40, 3: 60, 4: 20, 5: 40}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
}

func TestSelfTimeNested(t *testing.T) {
	spans := []Span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 90},
		{ID: 3, Parent: 2, Start: 20, End: 30},
		{ID: 4, Parent: 2, Start: 30, End: 45},  // abuts 3: union is 25
		{ID: 5, Parent: 1, Start: 95, End: 120}, // overruns its parent: clipped to 5
	}
	self := SelfTimes(spans)
	want := map[uint64]int64{1: 100 - 80 - 5, 2: 80 - 25, 3: 10, 4: 15, 5: 25}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
}

// TestSpansCrossHTTP sends a traced client request through a traced
// proxy-like handler whose legs call a traced backend, concurrently.
func TestSpansCrossHTTP(t *testing.T) {
	rec := NewRecorder()
	rec.SetOn(true)
	backend := httptest.NewServer(traceHandler(rec, "sumdsrv", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {})))
	defer backend.Close()
	legs := &http.Client{Transport: legTransport{rec: rec, base: http.DefaultTransport}}
	front := httptest.NewServer(traceHandler(rec, "proxy", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var wg sync.WaitGroup
		for i := 0; i < 3; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				req, _ := http.NewRequestWithContext(r.Context(), http.MethodPost, backend.URL+"/v1/keyed/partial", nil)
				if resp, err := legs.Do(req); err == nil {
					resp.Body.Close()
				}
			}()
		}
		wg.Wait()
	})))
	defer front.Close()

	ctx, root := rec.Start(context.Background(), "sumdclient.write")
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, front.URL+"/v1/add", nil)
	resp, err := (&http.Client{Transport: clientTransport{base: http.DefaultTransport}}).Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	root.End()

	spans := rec.Spans()
	ix := indexSpans(spans)
	client := ix.byName["sumdclient.write"]
	proxyH := ix.byName["proxy.handler.add"]
	legSpans := ix.byName["proxy.leg"]
	backendH := ix.byName["sumdsrv.handler.keyed_partial"]
	if len(client) != 1 || len(proxyH) != 1 || len(legSpans) != 3 || len(backendH) != 3 {
		t.Fatalf("span counts: client %d proxy %d legs %d backend %d", len(client), len(proxyH), len(legSpans), len(backendH))
	}
	if proxyH[0].Parent != client[0].ID {
		t.Errorf("proxy handler parent %d, want client span %d", proxyH[0].Parent, client[0].ID)
	}
	legIDs := map[uint64]bool{}
	for _, l := range legSpans {
		legIDs[l.ID] = true
		if l.Parent != proxyH[0].ID {
			t.Errorf("leg parent %d, want proxy handler %d", l.Parent, proxyH[0].ID)
		}
	}
	for _, s := range spans {
		if s.Trace != client[0].ID {
			t.Errorf("span %s in trace %d, want %d", s.Name, s.Trace, client[0].ID)
		}
	}
	for _, b := range backendH {
		if !legIDs[b.Parent] {
			t.Errorf("backend handler parent %d is not a leg", b.Parent)
		}
	}
}

func TestRecorderOffAndNil(t *testing.T) {
	var nilRec *Recorder
	ctx, sp := nilRec.Start(context.Background(), "x")
	sp.End()
	if ctx != context.Background() {
		t.Error("nil recorder changed the context")
	}
	rec := NewRecorder()
	_, sp = rec.Start(context.Background(), "x")
	sp.End()
	if n := len(rec.Spans()); n != 0 {
		t.Errorf("recorder off recorded %d spans", n)
	}
}

func TestWriteSpansRoundTrip(t *testing.T) {
	spans := []Span{{Name: "a", Trace: 1, ID: 1, Start: 5, End: 9}, {Name: "b", Trace: 1, ID: 2, Parent: 1, Start: 6, End: 7}}
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := WriteSpans(path, spans); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got []Span
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, spans) {
		t.Fatalf("round trip %v, want %v", got, spans)
	}
}
