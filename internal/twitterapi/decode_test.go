package twitterapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/metrics"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
)

// bodyConn is a StreamConn reading body, as Client.Stream reads a
// response.
func bodyConn(body []byte) *StreamConn {
	c := NewClient("http://unused.invalid", nil)
	c.SetMetrics(metrics.NewRegistry())
	return newStreamConn(c, io.NopCloser(bytes.NewReader(body)))
}

// checkNext reads body through Next to its end. Every returned tweet must
// stay unchanged by the Next calls after it: the caller owns it. And Next
// must yield what json.Unmarshal makes of the body's non-blank lines, in
// order, failing at the first line json rejects or that is longer than
// maxStreamLine.
func checkNext(t *testing.T, body []byte) {
	t.Helper()
	st := bodyConn(body)
	var got []*Tweet
	var snaps [][]byte
	var err error
	for {
		var tw *Tweet
		tw, err = st.Next()
		for i, held := range got {
			if b, _ := json.Marshal(held); !bytes.Equal(b, snaps[i]) {
				t.Fatalf("tweet %d changed after a later Next:\n was %s\n now %s", i, snaps[i], b)
			}
		}
		if err != nil {
			break
		}
		snap, mErr := json.Marshal(tw)
		if mErr != nil {
			t.Fatal(mErr)
		}
		got, snaps = append(got, tw), append(snaps, snap)
	}

	n := 0 // tweet lines so far
	failsHere := func(line []byte, why error) {
		if n != len(got) || err == nil || errors.Is(err, io.EOF) {
			t.Fatalf("line %.80q: %v, but Next gave %d tweets of %d, then %v", line, why, len(got), n, err)
		}
	}
	for _, raw := range bytes.Split(body, []byte("\n")) {
		switch {
		case len(raw) > maxStreamLine:
			failsHere(raw, errors.New("the line is too long"))
			return
		case len(raw) >= maxStreamLine-1:
			return // at the bound, whether the newline fits decides
		}
		line := bytes.TrimSuffix(raw, []byte("\r"))
		if len(line) == 0 {
			continue // keep-alive
		}
		var want Tweet
		if jErr := json.Unmarshal(line, &want); jErr != nil {
			failsHere(line, jErr)
			return
		}
		if n >= len(got) || !reflect.DeepEqual(*got[n], want) {
			t.Fatalf("line %q: Next's tweet %d differs from json.Unmarshal's %+v", line, n, want)
		}
		n++
	}
	if n != len(got) || !errors.Is(err, io.EOF) {
		t.Fatalf("body of %d tweet lines: Next gave %d tweets, then %v", n, len(got), err)
	}
}

// FuzzNDJSONDecode feeds arbitrary response bodies through StreamConn.Next,
// the whole socket-reading path: keep-alive blank lines, control lines,
// over-long lines and lines encoding/json rejects. Nothing may panic, and
// checkNext's properties hold.
func FuzzNDJSONDecode(f *testing.F) {
	corpus := streamCorpus()
	for _, line := range corpus {
		f.Add([]byte(line))
	}
	hourEnd := `{"x_hour_end":{"hour":0,"dropped":0}}`
	// Every line json accepts in one body, with keep-alives, CRLF endings
	// and control lines between them: the first tweet, then `{}`, shows
	// that no state carries over from one line to the next.
	var all []byte
	for _, line := range corpus {
		if json.Unmarshal([]byte(line), new(Tweet)) == nil {
			all = append(all, line+"\n\r\n"+hourEnd+"\n"...)
		}
	}
	f.Add(all)
	f.Add([]byte("\n\n" + corpus[0] + "\r\n\n" + hourEnd + "\n" + corpus[0] + "\n"))
	f.Add([]byte(corpus[0] + "\n" + `{"id":1,` + "\n" + corpus[0] + "\n"))
	f.Add([]byte(corpus[0] + "\n" + `{"text":"` + strings.Repeat("x", maxStreamLine) + `"}` + "\n" + hourEnd))
	f.Fuzz(func(t *testing.T, body []byte) {
		checkNext(t, body)
	})
}

// streamCorpus enumerates tricky stream lines for the fuzz seed corpus.
func streamCorpus() []string {
	spam := true
	camp := 7
	full := Tweet{
		ID:        9007199254740993,
		CreatedAt: "2019-06-24T12:00:00.25Z",
		Text:      "free followers at https://spam.example #deal @victim \u00e9\u00fc \U0001F600",
		Kind:      "retweet",
		Source:    "third-party",
		Topic:     "giveaway",
		User: User{
			ID: 42, ScreenName: "bot_7", Name: "Bot \"Seven\"", Description: "desc\nline2",
			CreatedAt: "2018-01-01T00:00:00Z", FriendsCount: 1000, FollowersCount: 3,
			ListedCount: 1, FavouritesCount: 9, StatusesCount: 12000, Verified: false,
			DefaultProfile: true, ProfileImageHash: "a1b2c3d4e5f60718", Suspended: false,
			LastPostAt: "2019-06-24T11:00:00Z",
		},
		Entities: Entities{
			Hashtags: []string{"deal", "free"},
			Mentions: []Mention{{ID: 5, ScreenName: "victim"}},
			URLs:     []string{"https://spam.example"},
		},
		Spam:       &spam,
		CampaignID: &camp,
	}
	fullLine, _ := json.Marshal(full)

	return []string{
		string(fullLine),
		// Shape basics.
		`{}`, ` { } `, `null`, `{"id":1}`, "\t{\"id\":\t1}\r\n",
		`{"unknown":{"deep":[1,2,{"x":null}],"s":"v"},"id":3}`,
		// Strings: escapes, unicode escapes, surrogate pairs, lone
		// surrogates, raw multibyte, invalid UTF-8, escaped controls.
		`{"text":"plain"}`, `{"text":""}`,
		`{"text":"a\"b\\c\/d\be\ff\ng\rh\ti"}`,
		`{"text":"\u0041\u00e9\u4e2d"}`,
		`{"text":"\ud83d\ude00"}`,   // valid surrogate pair
		`{"text":"\ud800"}`,         // lone high surrogate -> U+FFFD
		`{"text":"\ude00x"}`,        // lone low surrogate -> U+FFFD
		`{"text":"\ud800\ud800"}`,   // high+high -> two U+FFFD
		`{"text":"\ud83d\u0041"}`,   // high + non-surrogate escape
		`{"text":"\u0000"}`,         // escaped NUL is legal
		"{\"text\":\"\xff\xfe\"}",   // invalid UTF-8 -> replacement runes
		"{\"text\":\"ok\xc3\x28\"}", // truncated multibyte mid-string
		`{"text":"\uD83D\uDE00"}`,   // uppercase hex
		`{"text":"\q"}`,             // bad escape: reject
		`{"text":"\u12"}`,           // short unicode escape: reject
		`{"text":"\u12zz"}`,         // bad hex: reject
		"{\"text\":\"ctl\x01\"}",    // raw control char: reject
		`{"text":"unterminated`,     // unterminated: reject
		// Numbers: grammar, overflow, null, wrong types.
		`{"id":0}`, `{"id":-0}`, `{"id":9223372036854775807}`,
		`{"id":-9223372036854775808}`,
		`{"id":9223372036854775808}`,              // overflow: reject
		`{"id":-9223372036854775809}`,             // underflow: reject
		`{"id":18446744073709551616}`,             // past uint64: reject
		`{"id":1.5}`, `{"id":1e3}`, `{"id":1E+2}`, // float into int64: reject
		`{"id":01}`, `{"id":+1}`, `{"id":-}`, `{"id":1.}`, `{"id":1e}`, // bad grammar
		`{"id":null}`, `{"id":"5"}`, `{"id":true}`,
		`{"unknown":1.25e-3,"id":2}`, `{"unknown":-0.0E+10}`,
		// Bools and the pointer oracle fields.
		`{"user":{"verified":true,"default_profile_image":false}}`,
		`{"user":{"verified":null}}`, `{"user":{"verified":1}}`,
		`{"x_oracle_spam":true,"x_oracle_campaign":3}`,
		`{"x_oracle_spam":false,"x_oracle_campaign":-1}`,
		`{"x_oracle_spam":null,"x_oracle_campaign":null}`,
		`{"x_oracle_spam":"yes"}`, `{"x_oracle_campaign":2.5}`,
		// Nested structs: null no-op, duplicates merge, wrong types.
		`{"user":null}`, `{"user":{}}`, `{"user":[1]}`, `{"user":"x"}`,
		`{"user":{"id":1},"user":{"screen_name":"x"}}`,
		`{"entities":null,"entities":{"hashtags":["a"]}}`,
		`{"entities":{"hashtags":["a"]},"entities":{}}`,
		// Slices: null vs [], element nulls, reset on duplicate keys.
		`{"entities":{"hashtags":[]}}`,
		`{"entities":{"hashtags":null}}`,
		`{"entities":{"hashtags":["a",null,"b"]}}`,
		`{"entities":{"hashtags":["a","b"]},"entities":{"hashtags":["c"]}}`,
		`{"entities":{"hashtags":["a"],"hashtags":null}}`,
		`{"entities":{"hashtags":[1]}}`,     // number into string: reject
		`{"entities":{"hashtags":[["a"]]}}`, // array into string: reject
		`{"entities":{"urls":["u1","u2"]}}`,
		`{"entities":{"user_mentions":[]}}`,
		`{"entities":{"user_mentions":null}}`,
		`{"entities":{"user_mentions":[{"id":1,"screen_name":"a"},null,{"id":2}]}}`,
		`{"entities":{"user_mentions":[{"id":1,"extra":[true]}]}}`,
		`{"entities":{"user_mentions":["x"]}}`, // string into Mention: reject
		`{"entities":{"user_mentions":[{"id":1},{"id":2}]},"entities":{"user_mentions":[{"id":9}]}}`,
		// Key matching: case folding, escaped keys, Kelvin sign.
		`{"ID":4,"TEXT":"t","User":{"Screen_Name":"s"}}`,
		`{"\u0069\u0064":11}`, // escaped "id"
		`{"x_oracle_spam":true}`,
		"{\"\u212a\u0069nd\":\"quote\"}", // Kelvin-K folds to "kind"
		`{"created_at":"x","CREATED_AT":"y"}`,
		// Structural junk.
		`{"id":1,}`, `{,}`, `{"id" 1}`, `{"id":1 "text":"x"}`,
		`[{"id":1}]`, `"just a string"`, `123`, `true`,
		`{"id":1}x`, `{"id":1} `, `nullx`, ``, ` `, `{`, `}`,
		`{"a":}`, `{"a":,}`, `{:1}`, `{"a":1,,"b":2}`,
		strings.Repeat(`{"a":`, 32) + "1" + strings.Repeat("}", 32),
		`{"deep":` + strings.Repeat("[", 64) + strings.Repeat("]", 64) + `}`,
		// End-of-hour control lines: valid, truncated, a negative drop
		// count (decodes; the consumer rejects it), a string-typed one,
		// null, merged duplicates, and a non-object.
		`{"x_hour_end":{"hour":3,"dropped":0}}`,
		`{"x_hour_end":{"hour":3,"dro`,
		`{"x_hour_end":{"hour":3,"dropped":-1}}`,
		`{"x_hour_end":{"hour":3,"dropped":"12"}}`,
		`{"x_hour_end":null}`,
		`{"x_hour_end":{"hour":1},"X_Hour_End":{"dropped":2}}`,
		`{"x_hour_end":[0]}`,
	}
}

// BenchmarkStreamNext times what the wire source does per stream line:
// Next, then DecodeTweet for each tweet, over one server hour's lines —
// every tweet of a 1,000-account world plus the control line.
func BenchmarkStreamNext(b *testing.B) {
	cfg := socialnet.DefaultConfig()
	cfg.NumAccounts = 1000
	cfg.OrganicTweetsPerHour = 300
	w, err := socialnet.NewWorld(cfg)
	if err != nil {
		b.Fatal(err)
	}
	srv := NewServer(socialnet.NewEngine(w), WithOracle())
	st := &stream{all: true, wake: make(chan struct{}, 1)}
	srv.streamsMu.Lock()
	srv.streams[0] = st
	srv.streamsMu.Unlock()
	srv.Advance(1)
	if st.dropped != 0 {
		b.Fatalf("the hour dropped %d tweets", st.dropped)
	}
	lines := st.take()
	body := bytes.Join(lines, nil)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conn := bodyConn(body)
		for {
			wt, err := conn.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			if wt.HourEnd == nil {
				DecodeTweet(wt)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(lines)), "ns/line")
}
