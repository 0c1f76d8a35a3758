// Command slatectl fetches live slates and status from a running
// Muppet engine's HTTP API (Section 4.4 of the paper), feeds event
// batches into it through the streaming ingress endpoint, and runs
// relational queries over live slates through POST /query.
//
// Usage:
//
//	slatectl -addr 127.0.0.1:8080 status
//	slatectl -addr 127.0.0.1:8080 slate U1 Walmart
//	slatectl -addr 127.0.0.1:8080 -raw slate U2 "music_20"
//	slatectl -addr 127.0.0.1:8080 dump U1
//	slatectl -addr 127.0.0.1:8080 recovery
//	slatectl -addr 127.0.0.1:8080 stats
//	slatectl -addr 127.0.0.1:8080 -watch stats
//	slatectl -addr 127.0.0.1:8080 -batch 500 ingest < events.json
//	slatectl -addr 127.0.0.1:8080 query -stream U1 -topk 10 -by count
//	slatectl -addr 127.0.0.1:8080 query -stream U1 -prefix 'http://' -agg count
//	slatectl -addr 127.0.0.1:8080 query -stream U1 -where 'key:prefix:W' -fields key -limit 5
//	slatectl -addr 127.0.0.1:8080 query -stream U1 -topk 3 -by count -watch
//
// The query command POSTs one query spec — an ordered key scan
// (-prefix, -start/-end) piped through predicate filters (-where,
// comma-separated field:op:value triples), field projection (-fields)
// and an optional aggregation (-agg count|sum|min|max|topk, with -by,
// -group, -k; -topk n is shorthand for -agg topk -k n) — and prints
// the NDJSON answer: one line per row or group, then a stats line.
// The whole pipeline executes on the nodes owning the slates; only the
// reduced partials reach the coordinator. query -watch keeps the
// request open as a continuous query and streams one line per changed
// answer (re-evaluated per flush epoch, or -interval).
//
// The status command prints the largest queue per hosted machine
// (Section 4.5), the updaters and the node's identity; counters: stats.
//
// The stats command fetches /statsz and renders every metric as a
// table row — counters and gauges with their value, latency summaries
// with count/p50/p90/p95/p99/max. -watch clears the screen and refreshes
// every two seconds, a live top-like view of a running node.
//
// The recovery command prints the engine's recovery-subsystem status:
// ring membership, failover and rejoin counts, loss totals, and the
// latest incident reports.
//
// The slate command pretty-prints JSON slate payloads (the output of
// the typed API's JSONCodec, and of hand-rolled JSON slates); -raw
// dumps the payload verbatim instead.
//
// The ingest command reads JSON events from stdin — either one JSON
// array or a stream of objects, each {"stream","ts","key","value"} —
// and posts them to POST /ingest in batches, printing the per-batch
// accounting and a final total.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"muppet"
	"muppet/internal/httpapi"
	"muppet/internal/obs"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "engine HTTP address")
	batch := flag.Int("batch", 500, "events per POST /ingest request")
	raw := flag.Bool("raw", false, "print slate payloads verbatim instead of pretty-printing JSON")
	watch := flag.Bool("watch", false, "stats: refresh the table every two seconds")
	every := flag.Duration("every", 2*time.Second, "stats: -watch refresh interval")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}
	switch args[0] {
	case "status":
		get(fmt.Sprintf("http://%s/status", *addr))
	case "recovery":
		get(fmt.Sprintf("http://%s/recovery", *addr))
	case "stats":
		stats(fmt.Sprintf("http://%s/statsz", *addr), *watch, *every)
	case "slate":
		if len(args) != 3 {
			usage()
		}
		slate(fmt.Sprintf("http://%s/slate/%s/%s", *addr, url.PathEscape(args[1]), args[2]), *raw)
	case "dump":
		if len(args) != 2 {
			usage()
		}
		get(fmt.Sprintf("http://%s/slates/%s", *addr, url.PathEscape(args[1])))
	case "ingest":
		if len(args) != 1 {
			usage()
		}
		ingest(fmt.Sprintf("http://%s/ingest", *addr), os.Stdin, *batch)
	case "query":
		queryCmd(fmt.Sprintf("http://%s/query", *addr), args[1:], *watch)
	default:
		usage()
	}
}

// queryCmd parses the query subcommand's flags into a spec, posts it,
// and streams the NDJSON answer to stdout. A one-shot query returns
// after the stats line; -watch keeps printing changed answers until
// interrupted.
func queryCmd(u string, args []string, watch bool) {
	spec, err := parseQuery(args, watch)
	if err != nil {
		fmt.Fprintf(os.Stderr, "slatectl query: %v\n", err)
		os.Exit(2)
	}
	body, err := json.Marshal(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	resp, err := http.Post(u, "application/json", bytes.NewReader(body))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		fmt.Fprintf(os.Stderr, "%s: %s", resp.Status, msg)
		os.Exit(1)
	}
	// Relay the NDJSON stream line by line so -watch output appears as
	// each changed answer arrives.
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	for sc.Scan() {
		fmt.Println(sc.Text())
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// parseQuery builds the POST /query spec from the query subcommand's
// flags; watch is the global -watch flag.
func parseQuery(args []string, watch bool) (muppet.QuerySpec, error) {
	qf := flag.NewFlagSet("query", flag.ContinueOnError)
	updater := qf.String("updater", "", "update function whose slates to query (required)")
	stream := qf.String("stream", "", "alias for -updater")
	prefix := qf.String("prefix", "", "restrict the scan to keys with this prefix")
	start := qf.String("start", "", "scan range start (inclusive)")
	end := qf.String("end", "", "scan range end (exclusive)")
	where := qf.String("where", "", "comma-separated predicates, each field:op:value (ops: eq ne lt le gt ge contains prefix)")
	fields := qf.String("fields", "", "comma-separated output fields (\"key\" is the slate key; dotted paths reach nested fields)")
	agg := qf.String("agg", "", "aggregation: count, sum, min, max, or topk")
	topk := qf.Int("topk", 0, "shorthand for -agg topk -k n")
	by := qf.String("by", "", "field aggregated by sum/min/max and ranked by topk")
	group := qf.String("group", "", "field to group by (topk defaults to the slate key)")
	k := qf.Int("k", 0, "topk group count (default 10)")
	limit := qf.Int("limit", 0, "cap a plain scan's row count (0 = unlimited)")
	qwatch := qf.Bool("watch", false, "run as a continuous query, streaming each changed answer")
	interval := qf.Duration("interval", 0, "-watch re-evaluation interval (default: the engine's flush interval)")
	if err := qf.Parse(args); err != nil {
		return muppet.QuerySpec{}, err
	}
	if qf.NArg() != 0 {
		return muppet.QuerySpec{}, fmt.Errorf("unexpected argument %q", qf.Arg(0))
	}
	spec := muppet.QuerySpec{
		Updater: *updater,
		Prefix:  *prefix,
		Start:   *start,
		End:     *end,
		Agg:     *agg,
		By:      *by,
		GroupBy: *group,
		K:       *k,
		Limit:   *limit,
		Watch:   watch || *qwatch,
		EveryMS: int((*interval).Milliseconds()),
	}
	if spec.Updater == "" {
		spec.Updater = *stream
	}
	if spec.Updater == "" {
		return muppet.QuerySpec{}, fmt.Errorf("-stream (or -updater) is required")
	}
	if *topk > 0 {
		spec.Agg = "topk"
		spec.K = *topk
	}
	if *fields != "" {
		spec.Fields = strings.Split(*fields, ",")
	}
	if *where != "" {
		for _, clause := range strings.Split(*where, ",") {
			parts := strings.SplitN(clause, ":", 3)
			if len(parts) != 3 {
				return muppet.QuerySpec{}, fmt.Errorf("bad predicate %q (want field:op:value)", clause)
			}
			spec.Where = append(spec.Where, muppet.QueryPred{Field: parts[0], Op: parts[1], Value: parts[2]})
		}
	}
	return spec, nil
}

// ingest reads events from r (a JSON array or a stream of objects) and
// posts them in batches.
func ingest(u string, r io.Reader, batchSize int) {
	if batchSize <= 0 {
		batchSize = 500
	}
	next, err := eventReader(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var total httpapi.IngestReply
	batches := 0
	for {
		batch := make([]httpapi.IngestEvent, 0, batchSize)
		for len(batch) < batchSize {
			ev, ok, err := next()
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if !ok {
				break
			}
			batch = append(batch, ev)
		}
		if len(batch) == 0 {
			break
		}
		reply, err := postBatch(u, batch)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		batches++
		total.Events += reply.Events
		total.Accepted += reply.Accepted
		total.Dropped += reply.Dropped
		for k, v := range reply.Reasons {
			if total.Reasons == nil {
				total.Reasons = make(map[string]int)
			}
			total.Reasons[k] += v
		}
	}
	out, _ := json.Marshal(total)
	fmt.Printf("%d batches: %s\n", batches, out)
}

// eventReader yields events from either one JSON array or a
// whitespace-separated stream of JSON objects, decided by peeking the
// first non-space byte.
func eventReader(r io.Reader) (func() (httpapi.IngestEvent, bool, error), error) {
	br := bufio.NewReader(r)
	var first byte
	for {
		b, err := br.ReadByte()
		if err == io.EOF {
			return func() (httpapi.IngestEvent, bool, error) { return httpapi.IngestEvent{}, false, nil }, nil
		}
		if err != nil {
			return nil, err
		}
		if b == ' ' || b == '\t' || b == '\n' || b == '\r' {
			continue
		}
		first = b
		br.UnreadByte()
		break
	}
	dec := json.NewDecoder(br)
	if first == '[' {
		var evs []httpapi.IngestEvent
		if err := dec.Decode(&evs); err != nil {
			return nil, fmt.Errorf("slatectl: bad event array: %w", err)
		}
		return func() (httpapi.IngestEvent, bool, error) {
			if len(evs) == 0 {
				return httpapi.IngestEvent{}, false, nil
			}
			ev := evs[0]
			evs = evs[1:]
			return ev, true, nil
		}, nil
	}
	return func() (httpapi.IngestEvent, bool, error) {
		var ev httpapi.IngestEvent
		err := dec.Decode(&ev)
		if err == io.EOF {
			return httpapi.IngestEvent{}, false, nil
		}
		if err != nil {
			return httpapi.IngestEvent{}, false, fmt.Errorf("slatectl: bad event object: %w", err)
		}
		return ev, true, nil
	}, nil
}

// postBatch posts one event batch and decodes the reply.
func postBatch(u string, batch []httpapi.IngestEvent) (httpapi.IngestReply, error) {
	body, err := json.Marshal(batch)
	if err != nil {
		return httpapi.IngestReply{}, err
	}
	resp, err := http.Post(u, "application/json", bytes.NewReader(body))
	if err != nil {
		return httpapi.IngestReply{}, err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	var reply httpapi.IngestReply
	if err := json.Unmarshal(data, &reply); err != nil {
		return httpapi.IngestReply{}, fmt.Errorf("%s: %s", resp.Status, data)
	}
	if reply.Error != "" {
		return reply, fmt.Errorf("ingest failed: %s", reply.Error)
	}
	return reply, nil
}

func get(u string) {
	fmt.Printf("%s\n", fetch(u))
}

// stats renders the /statsz snapshot as a table; watch loops forever,
// clearing the screen before each refresh (a top-like live view).
func stats(u string, watch bool, every time.Duration) {
	for {
		var entries []obs.SnapshotEntry
		if err := json.Unmarshal(fetch(u), &entries); err != nil {
			fmt.Fprintf(os.Stderr, "slatectl: bad /statsz payload: %v\n", err)
			os.Exit(1)
		}
		var b strings.Builder
		renderStats(&b, entries)
		if watch {
			// ANSI clear + home keeps the refresh flicker-free without
			// pulling in a terminal library.
			fmt.Print("\x1b[2J\x1b[H")
			fmt.Printf("%s  (refreshing every %v, ^C to stop)\n", time.Now().Format(time.TimeOnly), every)
		}
		fmt.Print(b.String())
		if !watch {
			return
		}
		time.Sleep(every)
	}
}

// renderStats writes one aligned row per metric: counters and gauges
// with their value, summaries with count/p50/p90/p95/p99/max.
func renderStats(w io.Writer, entries []obs.SnapshotEntry) {
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].Name < entries[j].Name })
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "METRIC\tTYPE\tVALUE\tCOUNT\tP50\tP90\tP95\tP99\tMAX")
	for _, e := range entries {
		name := e.Name
		if len(e.Labels) > 0 {
			keys := make([]string, 0, len(e.Labels))
			for k := range e.Labels {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			parts := make([]string, 0, len(keys))
			for _, k := range keys {
				parts = append(parts, fmt.Sprintf("%s=%s", k, e.Labels[k]))
			}
			name += "{" + strings.Join(parts, ",") + "}"
		}
		if e.Count != nil {
			fmt.Fprintf(tw, "%s\t%s\t\t%d\t%s\t%s\t%s\t%s\t%s\n", name, e.Type,
				*e.Count, num(e.P50), num(e.P90), num(e.P95), num(e.P99), num(e.Max))
			continue
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t\t\t\t\t\t\n", name, e.Type, num(e.Value))
	}
	tw.Flush()
}

// num renders an optional float compactly: integers without decimals,
// small fractions (latency seconds) with enough precision to read.
func num(v *float64) string {
	if v == nil {
		return ""
	}
	f := *v
	if f == float64(int64(f)) {
		return fmt.Sprintf("%d", int64(f))
	}
	if f < 1 {
		return fmt.Sprintf("%.6f", f)
	}
	return fmt.Sprintf("%.3f", f)
}

// slate prints one slate payload. Slates are codec output — JSON for
// every JSONCodec (and hand-rolled JSON) slate — so by default a JSON
// payload is pretty-printed; -raw restores the verbatim dump for
// opaque or machine-consumed slates.
func slate(u string, raw bool) {
	body := fetch(u)
	if !raw && json.Valid(body) {
		var pretty bytes.Buffer
		if err := json.Indent(&pretty, body, "", "  "); err == nil {
			fmt.Printf("%s\n", pretty.Bytes())
			return
		}
	}
	fmt.Printf("%s\n", body)
}

// fetch GETs u and returns the body, exiting on any failure.
func fetch(u string) []byte {
	resp, err := http.Get(u)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		fmt.Fprintf(os.Stderr, "%s: %s", resp.Status, body)
		os.Exit(1)
	}
	return body
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: slatectl [-addr host:port] [-batch n] [-raw] [-watch] status | recovery | stats | slate <updater> <key> | dump <updater> | ingest | query -stream <updater> [flags]")
	os.Exit(2)
}
