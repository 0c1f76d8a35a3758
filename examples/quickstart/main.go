// Command quickstart is the smallest complete MapUpdate application:
// live counters of HTTP requests per site section (one of the paper's
// motivating applications), defined inline, run on the Muppet 2.0
// engine, fed through the batched streaming-ingress API (in-process
// and over POST /ingest), and queried both directly and through the
// slate-fetch HTTP service of Section 4.4.
package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

import "muppet"

func main() {
	// A map function keys each request by its top-level path segment;
	// an update function counts requests per section in its slate.
	sectionize := muppet.MapFunc{FName: "M_section", Fn: func(emit muppet.Emitter, in muppet.Event) {
		path := string(in.Value)
		if i := strings.IndexByte(path, '?'); i >= 0 {
			path = path[:i]
		}
		section := strings.Trim(path, "/")
		if i := strings.IndexByte(section, '/'); i >= 0 {
			section = section[:i]
		}
		if section == "" {
			section = "(root)"
		}
		emit.Publish("hits", section, nil)
	}}
	// The typed slate API: the slate is a live int mutated in place —
	// decoded once when it enters the cache, re-encoded (as the same
	// ASCII decimal) only when flushed or read.
	count := muppet.Update[int]("U_count", func(emit muppet.Emitter, in muppet.Event, n *int) {
		*n++
	})

	app := muppet.NewApp("quickstart").
		Input("requests").
		AddMap(sectionize, []string{"requests"}, []string{"hits"}).
		AddUpdate(count, []string{"hits"}, nil, 0)

	eng, err := muppet.NewEngine(app, muppet.Config{Machines: 2, ThreadsPerMachine: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Stop()

	// Stream synthetic request-log events through the batched ingress
	// API: one IngestBatch per 256 events, with acceptance reported
	// back instead of silently dropping on overflow.
	paths := []string{"/products/1", "/products/2", "/cart", "/", "/products/3", "/cart/checkout", "/search?q=tv"}
	batch := make([]muppet.Event, 0, 256)
	ingested := 0
	flush := func() {
		if len(batch) == 0 {
			return
		}
		n, err := eng.IngestBatch(batch)
		if err != nil {
			log.Fatal(err)
		}
		ingested += n
		batch = batch[:0]
	}
	for i := 0; i < 700; i++ {
		batch = append(batch, muppet.Event{
			Stream: "requests",
			TS:     muppet.Timestamp(i + 1),
			Key:    strconv.Itoa(i),
			Value:  []byte(paths[i%len(paths)]),
		})
		if len(batch) == cap(batch) {
			flush()
		}
	}
	flush()
	eng.Drain()
	fmt.Printf("ingested %d events through IngestBatch\n", ingested)

	// Read the live slates directly...
	fmt.Println("requests per section (direct slate reads):")
	slates := eng.Slates("U_count")
	sections := make([]string, 0, len(slates))
	for s := range slates {
		sections = append(sections, s)
	}
	sort.Strings(sections)
	for _, s := range sections {
		fmt.Printf("  %-10s %s\n", s, slates[s])
	}

	// ...and through the HTTP slate-fetch service (Section 4.4).
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: muppet.Handler(eng)}
	go srv.Serve(ln)
	defer srv.Close()

	resp, err := http.Get("http://" + ln.Addr().String() + "/slate/U_count/products")
	if err != nil {
		log.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	fmt.Printf("HTTP GET /slate/U_count/products -> %s\n", body)

	// ...and ingest over HTTP too: POST /ingest takes a JSON batch and
	// returns the acceptance accounting (slatectl ingest speaks this).
	post, err := http.Post("http://"+ln.Addr().String()+"/ingest", "application/json",
		bytes.NewReader([]byte(`[{"stream":"requests","ts":701,"key":"x","value":"/cart"}]`)))
	if err != nil {
		log.Fatal(err)
	}
	reply, _ := io.ReadAll(post.Body)
	post.Body.Close()
	eng.Drain()
	fmt.Printf("HTTP POST /ingest -> %s", reply)

	fmt.Printf("end-to-end latency: %s\n", muppet.LatencySummary(eng))
}
