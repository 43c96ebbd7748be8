package obs

import (
	"bytes"
	"io"
	"reflect"
	"sort"
	"testing"
)

// replaySeedLines are verbatim lines of results/events.jsonl: a served
// tape read, a staging-cache hit, and shed, rejected and failed
// outcomes.
var replaySeedLines = []string{
	`{"seq":1,"shard":1,"object":"t0/o64","tape":3001,"drive":0,"class":"standard","outcome":"served","cache":false,"route":"routed","replica":0,"arrival_sec":50.21661932465022,"done_sec":135.51801496650103,"queue_sec":0,"robot_sec":0,"mount_sec":30,"locate_sec":54.611356960288425,"transfer_sec":0.6900386815623705,"retry_sec":0,"rescue_sec":0,"labels":[{"key":"rate","value":"120"},{"key":"shards","value":"2"},{"key":"router","value":"affinity"}]}`,
	`{"seq":6,"shard":1,"object":"t0/o63","tape":3001,"drive":-1,"class":"standard","outcome":"served","cache":true,"route":"affinity","replica":0,"arrival_sec":431.4295533615621,"done_sec":431.5595533615621,"queue_sec":0,"robot_sec":0,"mount_sec":0,"locate_sec":0.005,"transfer_sec":0.125,"retry_sec":0,"rescue_sec":0,"labels":[{"key":"rate","value":"120"},{"key":"shards","value":"2"},{"key":"router","value":"affinity"}]}`,
	`{"seq":92,"shard":0,"object":"t13/o123","tape":3014,"drive":-2,"class":"standard","outcome":"shed","cache":false,"route":"routed","replica":0,"arrival_sec":112.96989245997285,"done_sec":1466.4877963405365,"queue_sec":1353.5179038805636,"robot_sec":0,"mount_sec":0,"locate_sec":0,"transfer_sec":0,"retry_sec":0,"rescue_sec":0,"labels":[{"key":"rate","value":"480"},{"key":"shards","value":"2"},{"key":"router","value":"affinity"}]}`,
	`{"seq":12,"shard":0,"object":"t3/o63","tape":3004,"drive":-2,"class":"standard","outcome":"rejected","cache":false,"route":"routed","replica":0,"arrival_sec":335.1881317731797,"done_sec":335.1881317731797,"queue_sec":0,"robot_sec":0,"mount_sec":0,"locate_sec":0,"transfer_sec":0,"retry_sec":0,"rescue_sec":0,"labels":[{"key":"rate","value":"480"},{"key":"shards","value":"2"},{"key":"router","value":"affinity"}]}`,
	`{"seq":81,"shard":1,"object":"t15/o99","tape":3015,"drive":-2,"class":"standard","outcome":"failed","cache":false,"route":"affinity","replica":1,"arrival_sec":5354.532030270341,"done_sec":5521.983332864176,"queue_sec":167.45130259383495,"robot_sec":0,"mount_sec":0,"locate_sec":0,"transfer_sec":0,"retry_sec":0,"rescue_sec":0,"labels":[{"key":"rate","value":"120"},{"key":"shards","value":"2"},{"key":"router","value":"affinity"}]}`,
}

// FuzzEventLogReplay drives the event-log replay path with arbitrary
// bytes, the trust boundary a log analyzer crosses: parse the JSONL,
// sort by terminal time as the SLO analyzer does, score every event
// through an SLO engine and render its report. Nothing may panic, and
// every log the parser accepts must survive a write/read round trip
// unchanged.
func FuzzEventLogReplay(f *testing.F) {
	for i, line := range replaySeedLines {
		f.Add([]byte(line))
		// Multi-line logs, out of terminal-time order and with a blank
		// line, exercise the sort and the blank-line skip.
		f.Add([]byte(replaySeedLines[(i+2)%len(replaySeedLines)] + "\n\n" + line + "\n"))
	}
	f.Add([]byte(`{"seq":1,"labels":[]}`))
	f.Add([]byte("{\"object\":\"\xff\"}\n{}"))
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ReadEventsJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		sort.SliceStable(events, func(i, j int) bool {
			a, b := events[i], events[j]
			if a.DoneSec != b.DoneSec {
				return a.DoneSec < b.DoneSec
			}
			if a.Shard != b.Shard {
				return a.Shard < b.Shard
			}
			return a.Seq < b.Seq
		})
		engine, err := NewSLOEngine(SLOConfig{Objectives: []Objective{
			{Name: "availability", Target: 0.995},
			{Name: "latency", Target: 0.95, LatencySec: 1800},
		}})
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range events {
			engine.ObserveEvent(ev)
		}
		if err := engine.WriteReport(io.Discard); err != nil {
			t.Fatal(err)
		}

		var buf bytes.Buffer
		if err := WriteEventsJSONL(&buf, events, 0); err != nil {
			t.Fatalf("write of an accepted log: %v", err)
		}
		back, err := ReadEventsJSONL(&buf)
		if err != nil {
			t.Fatalf("re-read of a written log: %v", err)
		}
		// An empty label list and an absent one mean the same; the
		// writer omits both.
		for _, evs := range [][]Event{events, back} {
			for i := range evs {
				if len(evs[i].Labels) == 0 {
					evs[i].Labels = nil
				}
			}
		}
		if !reflect.DeepEqual(back, events) {
			t.Fatalf("round trip changed the log:\nread    %+v\nre-read %+v", events, back)
		}
	})
}
