package twitterapi

import (
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// mustJSON round-trips a tweet through encoding/json to build test lines.
func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkDecodeMatchesJSON asserts the scratch decoder and encoding/json
// agree on line: same accept/reject decision, and deeply equal tweets on
// accept. Returns the decoded tweet for further checks.
func checkDecodeMatchesJSON(t *testing.T, d *StreamDecoder, line []byte) *Tweet {
	t.Helper()
	var want Tweet
	wantErr := json.Unmarshal(line, &want)
	got, gotErr := d.Decode(line)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("decode %q:\n scratch err = %v\n json err    = %v", line, gotErr, wantErr)
	}
	if gotErr != nil {
		return nil
	}
	if !reflect.DeepEqual(*got, want) {
		t.Fatalf("decode %q:\n scratch = %+v\n json    = %+v", line, *got, want)
	}
	return got
}

func TestStreamDecoderMatchesEncodingJSON(t *testing.T) {
	d := NewStreamDecoder()
	for _, line := range decoderCorpus() {
		checkDecodeMatchesJSON(t, d, []byte(line))
	}
}

// decoderCorpus enumerates the tricky lines shared by the table test and
// the fuzz seed corpus.
func decoderCorpus() []string {
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

// TestStreamDecoderDepthLimit pins the nesting bound to encoding/json's:
// depth 10000 decodes, 10001 is rejected by both.
func TestStreamDecoderDepthLimit(t *testing.T) {
	d := NewStreamDecoder()
	// The outer tweet object consumes one level.
	inner := maxNDJSONDepth - 1
	ok := `{"a":` + strings.Repeat("[", inner) + strings.Repeat("]", inner) + `}`
	deep := `{"a":` + strings.Repeat("[", inner+1) + strings.Repeat("]", inner+1) + `}`
	if tw := checkDecodeMatchesJSON(t, d, []byte(ok)); tw == nil {
		t.Fatal("depth-10000 line rejected")
	}
	if _, err := d.Decode([]byte(deep)); err == nil {
		t.Fatal("depth-10001 line accepted")
	}
	var w Tweet
	if err := json.Unmarshal([]byte(deep), &w); err == nil {
		t.Fatal("oracle accepted depth-10001 line (limit drifted)")
	}
}

// TestStreamDecoderReuse checks that no state bleeds between lines: a full
// tweet followed by an empty object yields a zero tweet.
func TestStreamDecoderReuse(t *testing.T) {
	d := NewStreamDecoder()
	corpus := decoderCorpus()
	full := []byte(corpus[0])
	if tw := checkDecodeMatchesJSON(t, d, full); tw == nil {
		t.Fatal("full tweet line rejected")
	}
	got, err := d.Decode([]byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*got, Tweet{}) {
		t.Fatalf("state bled across Decode calls: %+v", *got)
	}
	// And interleave every corpus line against a dirty decoder.
	for _, line := range corpus {
		d2 := NewStreamDecoder()
		if _, err := d2.Decode(full); err != nil {
			t.Fatal(err)
		}
		checkDecodeMatchesJSON(t, d2, []byte(line))
	}
}

// TestStreamDecoderAliasing documents the ownership contract: decoded
// strings alias the input line, and Clone detaches them.
func TestStreamDecoderAliasing(t *testing.T) {
	d := NewStreamDecoder()
	line := []byte(`{"text":"original","entities":{"hashtags":["tag"]}}`)
	got, err := d.Decode(line)
	if err != nil {
		t.Fatal(err)
	}
	clone := got.Clone()
	for i := range line {
		line[i] = 'x'
	}
	if got.Text == "original" {
		t.Fatal("decoded Text did not alias the line; zero-copy path broken")
	}
	if clone.Text != "original" || clone.Entities.Hashtags[0] != "tag" {
		t.Fatalf("Clone did not detach: %+v", clone)
	}
}

// TestTweetClone checks the deep copy covers every reference field.
func TestTweetClone(t *testing.T) {
	var orig Tweet
	if err := json.Unmarshal([]byte(decoderCorpus()[0]), &orig); err != nil {
		t.Fatal(err)
	}
	clone := orig.Clone()
	if !reflect.DeepEqual(orig, clone) {
		t.Fatalf("clone differs:\n orig  = %+v\n clone = %+v", orig, clone)
	}
	// Mutating the clone's reference fields must not touch the original.
	clone.Entities.Hashtags[0] = "mut"
	clone.Entities.URLs[0] = "mut"
	clone.Entities.Mentions[0].ScreenName = "mut"
	*clone.Spam = !*clone.Spam
	*clone.CampaignID++
	if orig.Entities.Hashtags[0] == "mut" || orig.Entities.URLs[0] == "mut" ||
		orig.Entities.Mentions[0].ScreenName == "mut" {
		t.Fatal("clone shares entity slices with the original")
	}
	if *orig.Spam == *clone.Spam || *orig.CampaignID == *clone.CampaignID {
		t.Fatal("clone shares oracle pointers with the original")
	}
}

// FuzzNDJSONDecode cross-checks the scratch decoder against encoding/json
// on arbitrary lines: identical accept/reject decisions and deeply equal
// tweets, from both a fresh and a deliberately dirtied decoder.
func FuzzNDJSONDecode(f *testing.F) {
	for _, line := range decoderCorpus() {
		f.Add([]byte(line))
	}
	dirty := []byte(decoderCorpus()[0])
	f.Fuzz(func(t *testing.T, line []byte) {
		var want Tweet
		wantErr := json.Unmarshal(line, &want)

		d := NewStreamDecoder()
		if _, err := d.Decode(dirty); err != nil {
			t.Fatal("dirty seed line rejected")
		}
		for round := 0; round < 2; round++ { // twice: catches stale state
			got, gotErr := d.Decode(line)
			if (gotErr != nil) != (wantErr != nil) {
				t.Fatalf("round %d: scratch err = %v, json err = %v (line %q)",
					round, gotErr, wantErr, line)
			}
			if gotErr == nil && !reflect.DeepEqual(*got, want) {
				t.Fatalf("round %d: scratch = %+v\njson = %+v\n(line %q)",
					round, *got, want, line)
			}
		}
	})
}

// TestTweetScratchMatchesDecodeTweet holds the allocation-free conversion
// to the owning one: over every corpus line encoding/json accepts, a
// capture retained from the scratch path (StreamDecoder → TweetScratch →
// Clone, one decoder and one scratch reused across lines) must equal
// what json.Unmarshal → DecodeTweet builds. Empty and nil slices compare
// equal: the scratch keeps its backing arrays, the owning form starts nil.
func TestTweetScratchMatchesDecodeTweet(t *testing.T) {
	d := NewStreamDecoder()
	var conv TweetScratch
	checked := 0
	for _, line := range decoderCorpus() {
		var wire Tweet
		if json.Unmarshal([]byte(line), &wire) != nil {
			continue
		}
		want, _ := DecodeTweet(&wire)
		wt, err := d.Decode([]byte(line))
		if err != nil {
			t.Fatalf("scratch decoder rejects %q: %v", line, err)
		}
		got := conv.Convert(wt).Clone()
		if got.ID != want.ID || got.AuthorID != want.AuthorID || !got.CreatedAt.Equal(want.CreatedAt) ||
			got.Kind != want.Kind || got.Source != want.Source || got.Text != want.Text ||
			got.Topic != want.Topic || got.Spam != want.Spam || got.CampaignID != want.CampaignID ||
			!slices.Equal(got.Hashtags, want.Hashtags) || !slices.Equal(got.URLs, want.URLs) ||
			!slices.Equal(got.Mentions, want.Mentions) {
			t.Fatalf("line %q:\nscratch %+v\nowning  %+v", line, got, want)
		}
		checked++
	}
	if checked < 10 {
		t.Fatalf("only %d corpus lines were comparable", checked)
	}
}

// BenchmarkStreamDecode times the in-process NDJSON ingest step no
// whole-run bench/ workload exercises: StreamDecoder.Decode plus
// TweetScratch.Convert over a fully populated spam line and a bare
// organic one, in steady state (0 allocs/op, as the alloc tests pin).
func BenchmarkStreamDecode(b *testing.B) {
	lines := [][]byte{
		[]byte(decoderCorpus()[0]),
		[]byte(`{"id":102,"text":"plain organic tweet","user":{"id":43,"screen_name":"human"},"entities":{"hashtags":[],"user_mentions":[],"urls":[]}}`),
	}
	d := NewStreamDecoder()
	var conv TweetScratch
	b.SetBytes(int64(len(lines[0])+len(lines[1])) / 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tw, err := d.Decode(lines[i%2])
		if err != nil {
			b.Fatal(err)
		}
		conv.Convert(tw)
	}
}
