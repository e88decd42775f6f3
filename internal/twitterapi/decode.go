package twitterapi

import (
	"errors"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
	"unsafe"
)

// StreamDecoder decodes NDJSON stream lines into a reusable Tweet with no
// steady-state allocations: one hand-rolled parse over the line bytes, no
// reflection, no intermediate copies. String fields alias either the input
// line (the common no-escape case) or the decoder's unescape arena, and
// slice fields reuse the decoder's backing arrays, so the returned Tweet
// and everything it references is valid only until the next Decode call
// (or until the caller reuses line's backing array). Callers that retain a
// tweet — or any of its strings or slices — beyond that window must take a
// deep copy via Tweet.Clone.
//
// Decode is fuzz-verified against encoding/json (FuzzNDJSONDecode): for
// every input it accepts exactly when json.Unmarshal into a fresh Tweet
// accepts, and then produces a deeply equal value — including
// case-insensitive key matching, duplicate-key last-wins, null semantics
// per field kind, invalid-UTF-8 replacement, and the same nesting-depth
// bound.
type StreamDecoder struct {
	t Tweet

	// Scratch backings reused across decodes. The Tweet's slice fields are
	// re-sliced from these; the pointer fields point at spamVal/campVal.
	mentions []Mention
	hashtags []string
	urls     []string
	arena    []byte
	spamVal  bool
	campVal  int
	hourEnd  HourEnd

	// Parser state for the current line.
	data  []byte
	pos   int
	depth int
}

// NewStreamDecoder creates a stream decoder with empty scratch buffers;
// the first decodes grow them to the stream's steady-state sizes.
func NewStreamDecoder() *StreamDecoder {
	return &StreamDecoder{}
}

// Decode errors carry no positional detail on purpose: they are static so
// the error path stays allocation-free too.
var (
	errDecodeSyntax = errors.New("twitterapi: malformed NDJSON line")
	errDecodeType   = errors.New("twitterapi: NDJSON field has wrong type")
	errDecodeDepth  = errors.New("twitterapi: NDJSON nesting exceeds max depth")
)

// maxNDJSONDepth mirrors encoding/json's maxNestingDepth so the scratch
// decoder and the oracle reject the same pathological inputs.
const maxNDJSONDepth = 10000

// Decode parses one NDJSON line. The returned Tweet is owned by the
// decoder; see the type comment for the aliasing contract.
func (d *StreamDecoder) Decode(line []byte) (*Tweet, error) {
	d.data, d.pos, d.depth = line, 0, 0
	d.arena = d.arena[:0]
	d.t = Tweet{}
	d.skipWS()
	if d.pos >= len(d.data) {
		return nil, errDecodeSyntax
	}
	var err error
	switch d.data[d.pos] {
	case '{':
		err = d.parseObject((*StreamDecoder).tweetField)
	case 'n':
		// json.Unmarshal of `null` into a fresh struct is a no-op success.
		err = d.parseLiteral("null")
	default:
		err = errDecodeType
	}
	if err != nil {
		return nil, err
	}
	d.skipWS()
	if d.pos != len(d.data) {
		return nil, errDecodeSyntax
	}
	return &d.t, nil
}

// skipWS advances past JSON whitespace.
func (d *StreamDecoder) skipWS() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\r', '\n':
			d.pos++
		default:
			return
		}
	}
}

// parseObject consumes one object, dispatching every "key": value pair to
// field with the unescaped key bytes. field must consume exactly one value.
func (d *StreamDecoder) parseObject(field func(*StreamDecoder, []byte) error) error {
	d.depth++
	if d.depth > maxNDJSONDepth {
		return errDecodeDepth
	}
	d.pos++ // '{'
	d.skipWS()
	if d.pos < len(d.data) && d.data[d.pos] == '}' {
		d.pos++
		d.depth--
		return nil
	}
	for {
		d.skipWS()
		if d.pos >= len(d.data) || d.data[d.pos] != '"' {
			return errDecodeSyntax
		}
		key, err := d.parseStringRaw()
		if err != nil {
			return err
		}
		d.skipWS()
		if d.pos >= len(d.data) || d.data[d.pos] != ':' {
			return errDecodeSyntax
		}
		d.pos++
		d.skipWS()
		if err := field(d, key); err != nil {
			return err
		}
		d.skipWS()
		if d.pos >= len(d.data) {
			return errDecodeSyntax
		}
		switch d.data[d.pos] {
		case ',':
			d.pos++
		case '}':
			d.pos++
			d.depth--
			return nil
		default:
			return errDecodeSyntax
		}
	}
}

// keyIs reports whether the unescaped key matches name the way
// encoding/json matches struct fields: exact bytes first, then
// case-insensitivity under Unicode simple folding. The manual fold loop
// avoids the []byte(name) conversion bytes.EqualFold would need.
func keyIs(key []byte, name string) bool {
	if string(key) == name {
		return true
	}
	for len(key) > 0 && len(name) > 0 {
		var kr, nr rune
		if key[0] < utf8.RuneSelf {
			kr = rune(key[0])
			key = key[1:]
		} else {
			r, size := utf8.DecodeRune(key)
			kr = r
			key = key[size:]
		}
		if name[0] < utf8.RuneSelf {
			nr = rune(name[0])
			name = name[1:]
		} else {
			r, size := utf8.DecodeRuneInString(name)
			nr = r
			name = name[size:]
		}
		if kr == nr {
			continue
		}
		if kr < utf8.RuneSelf && nr < utf8.RuneSelf {
			// ASCII fast path: letters fold case-insensitively, nothing
			// else folds (matching encoding/json's foldName). Key
			// dispatch tries several candidate names per key, so the
			// mismatch exit must not reach unicode.SimpleFold.
			if kr^nr == 0x20 {
				if l := kr | 0x20; 'a' <= l && l <= 'z' {
					continue
				}
			}
			return false
		}
		// Fold both to the minimum rune in their fold orbit and compare.
		if foldRune(kr) != foldRune(nr) {
			return false
		}
	}
	return len(key) == 0 && len(name) == 0
}

// foldRune maps r to the smallest rune in its unicode.SimpleFold orbit.
func foldRune(r rune) rune {
	min := r
	for f := unicode.SimpleFold(r); f != r; f = unicode.SimpleFold(f) {
		if f < min {
			min = f
		}
	}
	return min
}

// tweetField dispatches one top-level tweet field.
func (d *StreamDecoder) tweetField(key []byte) error {
	switch {
	case keyIs(key, "id"):
		return d.parseInt64(&d.t.ID)
	case keyIs(key, "created_at"):
		return d.parseString(&d.t.CreatedAt)
	case keyIs(key, "text"):
		return d.parseString(&d.t.Text)
	case keyIs(key, "kind"):
		return d.parseString(&d.t.Kind)
	case keyIs(key, "source"):
		return d.parseString(&d.t.Source)
	case keyIs(key, "topic"):
		return d.parseString(&d.t.Topic)
	case keyIs(key, "user"):
		return d.parseStruct((*StreamDecoder).userField)
	case keyIs(key, "entities"):
		return d.parseStruct((*StreamDecoder).entitiesField)
	case keyIs(key, "x_oracle_spam"):
		return d.parseBoolPtr(&d.t.Spam)
	case keyIs(key, "x_oracle_campaign"):
		return d.parseIntPtr(&d.t.CampaignID)
	case keyIs(key, "x_hour_end"):
		return d.parseHourEnd()
	}
	return d.skipValue()
}

// parseHourEnd consumes the control-line object into the decoder's scratch
// HourEnd. Like encoding/json decoding into a pointer field, null sets the
// pointer to nil, and a repeated key decodes into the value already
// pointed at (so its fields merge).
func (d *StreamDecoder) parseHourEnd() error {
	if d.pos < len(d.data) && d.data[d.pos] == 'n' {
		if err := d.parseLiteral("null"); err != nil {
			return err
		}
		d.t.HourEnd = nil
		return nil
	}
	if d.pos >= len(d.data) {
		return errDecodeSyntax
	}
	if d.data[d.pos] != '{' {
		return errDecodeType
	}
	if d.t.HourEnd == nil {
		d.hourEnd = HourEnd{}
		d.t.HourEnd = &d.hourEnd
	}
	h := d.t.HourEnd
	return d.parseObject(func(d *StreamDecoder, key []byte) error {
		switch {
		case keyIs(key, "hour"):
			return d.parseInt(&h.Hour)
		case keyIs(key, "dropped"):
			return d.parseInt64(&h.Dropped)
		}
		return d.skipValue()
	})
}

// userField dispatches one field of the nested user object.
func (d *StreamDecoder) userField(key []byte) error {
	u := &d.t.User
	switch {
	case keyIs(key, "id"):
		return d.parseInt64(&u.ID)
	case keyIs(key, "screen_name"):
		return d.parseString(&u.ScreenName)
	case keyIs(key, "name"):
		return d.parseString(&u.Name)
	case keyIs(key, "description"):
		return d.parseString(&u.Description)
	case keyIs(key, "created_at"):
		return d.parseString(&u.CreatedAt)
	case keyIs(key, "friends_count"):
		return d.parseInt(&u.FriendsCount)
	case keyIs(key, "followers_count"):
		return d.parseInt(&u.FollowersCount)
	case keyIs(key, "listed_count"):
		return d.parseInt(&u.ListedCount)
	case keyIs(key, "favourites_count"):
		return d.parseInt(&u.FavouritesCount)
	case keyIs(key, "statuses_count"):
		return d.parseInt(&u.StatusesCount)
	case keyIs(key, "verified"):
		return d.parseBool(&u.Verified)
	case keyIs(key, "default_profile_image"):
		return d.parseBool(&u.DefaultProfile)
	case keyIs(key, "profile_image_hash"):
		return d.parseString(&u.ProfileImageHash)
	case keyIs(key, "suspended"):
		return d.parseBool(&u.Suspended)
	case keyIs(key, "last_post_at"):
		return d.parseString(&u.LastPostAt)
	}
	return d.skipValue()
}

// entitiesField dispatches one field of the nested entities object.
func (d *StreamDecoder) entitiesField(key []byte) error {
	switch {
	case keyIs(key, "hashtags"):
		return d.parseStringArray(&d.t.Entities.Hashtags, &d.hashtags)
	case keyIs(key, "urls"):
		return d.parseStringArray(&d.t.Entities.URLs, &d.urls)
	case keyIs(key, "user_mentions"):
		return d.parseMentions()
	}
	return d.skipValue()
}

// parseStruct consumes an object into a nested struct field; null is a
// no-op, anything else non-object is a type error.
func (d *StreamDecoder) parseStruct(field func(*StreamDecoder, []byte) error) error {
	if d.pos >= len(d.data) {
		return errDecodeSyntax
	}
	switch d.data[d.pos] {
	case '{':
		return d.parseObject(field)
	case 'n':
		return d.parseLiteral("null")
	default:
		return errDecodeType
	}
}

// parseString consumes a string value into dst; null leaves dst untouched.
func (d *StreamDecoder) parseString(dst *string) error {
	if d.pos >= len(d.data) {
		return errDecodeSyntax
	}
	switch d.data[d.pos] {
	case '"':
		b, err := d.parseStringRaw()
		if err != nil {
			return err
		}
		*dst = unsafeString(b)
		return nil
	case 'n':
		return d.parseLiteral("null")
	default:
		return errDecodeType
	}
}

// parseInt64 consumes an integer number into dst; null leaves it untouched.
func (d *StreamDecoder) parseInt64(dst *int64) error {
	if d.pos >= len(d.data) {
		return errDecodeSyntax
	}
	switch c := d.data[d.pos]; {
	case c == '-' || (c >= '0' && c <= '9'):
		lit, err := d.parseNumberToken()
		if err != nil {
			return err
		}
		v, ok := parseIntBytes(lit)
		if !ok {
			return errDecodeType // fractional, exponent, or overflow
		}
		*dst = v
		return nil
	case c == 'n':
		return d.parseLiteral("null")
	default:
		return errDecodeType
	}
}

func (d *StreamDecoder) parseInt(dst *int) error {
	if d.pos < len(d.data) && d.data[d.pos] == 'n' {
		return d.parseLiteral("null")
	}
	var v int64
	if err := d.parseInt64(&v); err != nil {
		return err
	}
	*dst = int(v)
	return nil
}

// parseBool consumes true/false into dst; null leaves it untouched.
func (d *StreamDecoder) parseBool(dst *bool) error {
	if d.pos >= len(d.data) {
		return errDecodeSyntax
	}
	switch d.data[d.pos] {
	case 't':
		if err := d.parseLiteral("true"); err != nil {
			return err
		}
		*dst = true
		return nil
	case 'f':
		if err := d.parseLiteral("false"); err != nil {
			return err
		}
		*dst = false
		return nil
	case 'n':
		return d.parseLiteral("null")
	default:
		return errDecodeType
	}
}

// parseBoolPtr consumes a bool into the pointer field, pointing it at the
// decoder's scratch bool; null sets the pointer to nil (matching
// encoding/json's null-into-pointer semantics).
func (d *StreamDecoder) parseBoolPtr(dst **bool) error {
	if d.pos < len(d.data) && d.data[d.pos] == 'n' {
		if err := d.parseLiteral("null"); err != nil {
			return err
		}
		*dst = nil
		return nil
	}
	if err := d.parseBool(&d.spamVal); err != nil {
		return err
	}
	*dst = &d.spamVal
	return nil
}

// parseIntPtr is parseBoolPtr for the campaign-id pointer.
func (d *StreamDecoder) parseIntPtr(dst **int) error {
	if d.pos < len(d.data) && d.data[d.pos] == 'n' {
		if err := d.parseLiteral("null"); err != nil {
			return err
		}
		*dst = nil
		return nil
	}
	var v int64
	if err := d.parseInt64(&v); err != nil {
		return err
	}
	d.campVal = int(v)
	*dst = &d.campVal
	return nil
}

// parseStringArray consumes an array of strings into dst, reusing backing;
// null sets dst to nil (encoding/json's null-into-slice semantics).
func (d *StreamDecoder) parseStringArray(dst *[]string, backing *[]string) error {
	if d.pos >= len(d.data) {
		return errDecodeSyntax
	}
	switch d.data[d.pos] {
	case 'n':
		if err := d.parseLiteral("null"); err != nil {
			return err
		}
		*dst = nil
		return nil
	case '[':
		// fall through below
	default:
		return errDecodeType
	}
	d.depth++
	if d.depth > maxNDJSONDepth {
		return errDecodeDepth
	}
	d.pos++
	if *backing == nil {
		// An empty JSON array decodes to a non-nil empty slice.
		*backing = make([]string, 0, 4)
	}
	// A duplicate key decodes element-wise into the existing slice (null
	// elements keep the prior value), matching encoding/json. existing may
	// alias backing; elements are read before their slot is rewritten.
	existing := *dst
	buf := (*backing)[:0]
	d.skipWS()
	if d.pos < len(d.data) && d.data[d.pos] == ']' {
		d.pos++
		d.depth--
		*dst = buf
		return nil
	}
	for {
		d.skipWS()
		if d.pos >= len(d.data) {
			return errDecodeSyntax
		}
		var cur string
		if n := len(buf); n < len(existing) {
			cur = existing[n]
		}
		switch d.data[d.pos] {
		case '"':
			b, err := d.parseStringRaw()
			if err != nil {
				return err
			}
			cur = unsafeString(b)
		case 'n':
			// null element: the slot keeps its existing (or zero) value.
			if err := d.parseLiteral("null"); err != nil {
				return err
			}
		default:
			return errDecodeType
		}
		buf = append(buf, cur)
		d.skipWS()
		if d.pos >= len(d.data) {
			return errDecodeSyntax
		}
		switch d.data[d.pos] {
		case ',':
			d.pos++
		case ']':
			d.pos++
			d.depth--
			*backing = buf
			*dst = buf
			return nil
		default:
			return errDecodeSyntax
		}
	}
}

// parseMentions consumes the user_mentions array, reusing the mention
// backing slice.
func (d *StreamDecoder) parseMentions() error {
	if d.pos >= len(d.data) {
		return errDecodeSyntax
	}
	switch d.data[d.pos] {
	case 'n':
		if err := d.parseLiteral("null"); err != nil {
			return err
		}
		d.t.Entities.Mentions = nil
		return nil
	case '[':
		// fall through below
	default:
		return errDecodeType
	}
	d.depth++
	if d.depth > maxNDJSONDepth {
		return errDecodeDepth
	}
	d.pos++
	if d.mentions == nil {
		d.mentions = make([]Mention, 0, 4)
	}
	// Duplicate keys merge element-wise into the existing slice, matching
	// encoding/json: object elements update prior element values in place
	// and null elements keep them. existing may alias the backing; each
	// element is copied into its slot before any nested parse mutates it.
	existing := d.t.Entities.Mentions
	buf := d.mentions[:0]
	d.skipWS()
	if d.pos < len(d.data) && d.data[d.pos] == ']' {
		d.pos++
		d.depth--
		d.t.Entities.Mentions = buf
		return nil
	}
	for {
		d.skipWS()
		if d.pos >= len(d.data) {
			return errDecodeSyntax
		}
		var cur Mention
		if n := len(buf); n < len(existing) {
			cur = existing[n]
		}
		switch d.data[d.pos] {
		case '{':
			buf = append(buf, cur)
			d.mentions = buf // publish before nested parse may error out
			m := &buf[len(buf)-1]
			err := d.parseObject(func(d *StreamDecoder, key []byte) error {
				switch {
				case keyIs(key, "id"):
					return d.parseInt64(&m.ID)
				case keyIs(key, "screen_name"):
					return d.parseString(&m.ScreenName)
				}
				return d.skipValue()
			})
			if err != nil {
				return err
			}
		case 'n':
			// null element: the slot keeps its existing (or zero) value.
			if err := d.parseLiteral("null"); err != nil {
				return err
			}
			buf = append(buf, cur)
		default:
			return errDecodeType
		}
		d.skipWS()
		if d.pos >= len(d.data) {
			return errDecodeSyntax
		}
		switch d.data[d.pos] {
		case ',':
			d.pos++
		case ']':
			d.pos++
			d.depth--
			d.mentions = buf
			d.t.Entities.Mentions = buf
			return nil
		default:
			return errDecodeSyntax
		}
	}
}

// skipValue validates and skips one JSON value of any shape, enforcing the
// same strict grammar encoding/json's scanner applies to skipped input.
func (d *StreamDecoder) skipValue() error {
	if d.pos >= len(d.data) {
		return errDecodeSyntax
	}
	switch c := d.data[d.pos]; {
	case c == '{':
		return d.parseObject((*StreamDecoder).skipField)
	case c == '[':
		return d.skipArray()
	case c == '"':
		_, err := d.parseStringRaw()
		return err
	case c == 't':
		return d.parseLiteral("true")
	case c == 'f':
		return d.parseLiteral("false")
	case c == 'n':
		return d.parseLiteral("null")
	case c == '-' || (c >= '0' && c <= '9'):
		_, err := d.parseNumberToken()
		return err
	default:
		return errDecodeSyntax
	}
}

// skipField is the parseObject callback for unknown objects.
func (d *StreamDecoder) skipField([]byte) error { return d.skipValue() }

// skipArray validates and skips one array.
func (d *StreamDecoder) skipArray() error {
	d.depth++
	if d.depth > maxNDJSONDepth {
		return errDecodeDepth
	}
	d.pos++ // '['
	d.skipWS()
	if d.pos < len(d.data) && d.data[d.pos] == ']' {
		d.pos++
		d.depth--
		return nil
	}
	for {
		d.skipWS()
		if err := d.skipValue(); err != nil {
			return err
		}
		d.skipWS()
		if d.pos >= len(d.data) {
			return errDecodeSyntax
		}
		switch d.data[d.pos] {
		case ',':
			d.pos++
		case ']':
			d.pos++
			d.depth--
			return nil
		default:
			return errDecodeSyntax
		}
	}
}

// parseLiteral consumes the exact literal bytes.
func (d *StreamDecoder) parseLiteral(lit string) error {
	if len(d.data)-d.pos < len(lit) || string(d.data[d.pos:d.pos+len(lit)]) != lit {
		return errDecodeSyntax
	}
	d.pos += len(lit)
	return nil
}

// parseStringRaw consumes one string token (opening quote at d.pos) and
// returns its unescaped bytes: a view into the line when the content needs
// no rewriting, otherwise a slice of the unescape arena.
func (d *StreamDecoder) parseStringRaw() ([]byte, error) {
	data := d.data
	start := d.pos + 1
	i := start
	ascii := true
	for i < len(data) {
		c := data[i]
		if c == '"' {
			seg := data[start:i]
			if ascii || utf8.Valid(seg) {
				d.pos = i + 1
				return seg, nil
			}
			// Invalid UTF-8: rewrite with replacement runes, like
			// encoding/json's unquote.
			return d.unquoteSlow(start)
		}
		if c == '\\' {
			return d.unquoteSlow(start)
		}
		if c < 0x20 {
			return nil, errDecodeSyntax
		}
		if c >= utf8.RuneSelf {
			ascii = false
		}
		i++
	}
	return nil, errDecodeSyntax
}

// unquoteSlow unescapes a string with escapes or invalid UTF-8 into the
// arena, mirroring encoding/json's unquoteBytes semantics exactly.
func (d *StreamDecoder) unquoteSlow(start int) ([]byte, error) {
	data := d.data
	aStart := len(d.arena)
	i := start
	for i < len(data) {
		c := data[i]
		switch {
		case c == '"':
			d.pos = i + 1
			return d.arena[aStart:], nil
		case c == '\\':
			i++
			if i >= len(data) {
				return nil, errDecodeSyntax
			}
			switch data[i] {
			case '"', '\\', '/':
				d.arena = append(d.arena, data[i])
				i++
			case 'b':
				d.arena = append(d.arena, '\b')
				i++
			case 'f':
				d.arena = append(d.arena, '\f')
				i++
			case 'n':
				d.arena = append(d.arena, '\n')
				i++
			case 'r':
				d.arena = append(d.arena, '\r')
				i++
			case 't':
				d.arena = append(d.arena, '\t')
				i++
			case 'u':
				rr := getu4(data[i-1:])
				if rr < 0 {
					return nil, errDecodeSyntax
				}
				i += 5 // past uXXXX
				if utf16.IsSurrogate(rr) {
					rr1 := getu4(data[i:])
					if dec := utf16.DecodeRune(rr, rr1); dec != unicode.ReplacementChar {
						i += 6
						d.arena = utf8.AppendRune(d.arena, dec)
						continue
					}
					rr = unicode.ReplacementChar
				}
				d.arena = utf8.AppendRune(d.arena, rr)
			default:
				return nil, errDecodeSyntax
			}
		case c < 0x20:
			return nil, errDecodeSyntax
		case c < utf8.RuneSelf:
			d.arena = append(d.arena, c)
			i++
		default:
			r, size := utf8.DecodeRune(data[i:])
			if r == utf8.RuneError && size == 1 {
				d.arena = utf8.AppendRune(d.arena, utf8.RuneError)
				i++
			} else {
				d.arena = append(d.arena, data[i:i+size]...)
				i += size
			}
		}
	}
	return nil, errDecodeSyntax
}

// getu4 decodes \uXXXX at the start of s, returning -1 on malformed input
// (the same contract as encoding/json's getu4).
func getu4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// parseNumberToken consumes one number token, validating the strict JSON
// number grammar, and returns the literal bytes.
func (d *StreamDecoder) parseNumberToken() ([]byte, error) {
	data := d.data
	start := d.pos
	i := d.pos
	if i < len(data) && data[i] == '-' {
		i++
	}
	if i >= len(data) {
		return nil, errDecodeSyntax
	}
	switch {
	case data[i] == '0':
		i++
	case data[i] >= '1' && data[i] <= '9':
		for i < len(data) && data[i] >= '0' && data[i] <= '9' {
			i++
		}
	default:
		return nil, errDecodeSyntax
	}
	if i < len(data) && data[i] == '.' {
		i++
		if i >= len(data) || data[i] < '0' || data[i] > '9' {
			return nil, errDecodeSyntax
		}
		for i < len(data) && data[i] >= '0' && data[i] <= '9' {
			i++
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if i >= len(data) || data[i] < '0' || data[i] > '9' {
			return nil, errDecodeSyntax
		}
		for i < len(data) && data[i] >= '0' && data[i] <= '9' {
			i++
		}
	}
	d.pos = i
	return data[start:i], nil
}

// parseIntBytes parses a validated JSON number literal as an int64,
// rejecting fractional parts, exponents, and overflow — exactly the inputs
// strconv.ParseInt (encoding/json's integer path) rejects.
func parseIntBytes(lit []byte) (int64, bool) {
	i := 0
	neg := false
	if len(lit) > 0 && lit[0] == '-' {
		neg = true
		i = 1
	}
	if i >= len(lit) {
		return 0, false
	}
	var n uint64
	for ; i < len(lit); i++ {
		c := lit[i]
		if c < '0' || c > '9' {
			return 0, false // '.', 'e', 'E': not an integer
		}
		if n > (1<<63-1)/10 {
			return 0, false
		}
		n = n*10 + uint64(c-'0')
		if !neg && n > 1<<63-1 || neg && n > 1<<63 {
			return 0, false
		}
	}
	if neg {
		return -int64(n), true
	}
	return int64(n), true
}

// unsafeString views b as a string without copying. The caller guarantees
// b's bytes are not rewritten while the string is reachable — the decoder's
// arena and line views hold that until the next Decode.
func unsafeString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(unsafe.SliceData(b), len(b))
}
