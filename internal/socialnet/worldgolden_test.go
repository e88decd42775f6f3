package socialnet

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"strconv"
	"testing"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/parallel"
)

// worldDigest is a SHA-256 over every profile field of every account in
// w.accounts order, then over every campaign's base image seed and member
// list. A world that differs in any generated field, avatar hash included,
// digests differently.
func worldDigest(w *World) string {
	h := sha256.New()
	for _, a := range w.accounts {
		digestAccount(h, a)
	}
	for _, c := range w.campaigns {
		putInt(h, int64(c.ID))
		putInt(h, c.BaseImageSeed)
		for _, id := range c.MemberIDs {
			putInt(h, int64(id))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func digestAccount(h hash.Hash, a *Account) {
	putInt(h, int64(a.ID))
	putString(h, a.ScreenName)
	putString(h, a.Name)
	putString(h, a.Description)
	putInt(h, a.CreatedAt.UnixNano())
	for _, n := range []int{a.FriendsCount, a.FollowersCount, a.ListedCount,
		a.FavouritesCount, a.StatusesCount, int(a.Kind), a.CampaignID,
		int(a.HashtagCategory), int(a.TrendAffinity), int(a.PreferredSource), a.spamBudget} {
		putInt(h, int64(n))
	}
	putBool(h, a.Verified)
	putBool(h, a.DefaultProfileImage)
	putBool(h, a.Suspended)
	putInt(h, a.ProfileImageSeed)
	putInt(h, int64(a.ProfileImageHash.Hi))
	putInt(h, int64(a.ProfileImageHash.Lo))
	putInt(h, int64(math.Float64bits(a.TweetsPerHour)))
	putInt(h, int64(math.Float64bits(a.MentionRate)))
}

func putInt(h hash.Hash, v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	h.Write(b[:])
}

func putString(h hash.Hash, s string) {
	putInt(h, int64(len(s)))
	h.Write([]byte(s))
}

func putBool(h hash.Hash, v bool) {
	if v {
		putInt(h, 1)
	} else {
		putInt(h, 0)
	}
}

// TestWorldGolden pins world generation bit for bit in every avatar-hash
// configuration: the digest covers every account's profile fields
// (avatar seed and hash, kind and campaign included) plus the accounts
// SpawnSpammer adds afterwards. Generation must give the same world at
// any worker-pool size.
func TestWorldGolden(t *testing.T) {
	cases := []struct {
		mode   string
		mutate bool
		want   string
	}{
		{ImageHashDHash, false, "195a7d0ee25992bb0ac35d45c603e2a012add79a9d9b35e98c424fc7dcf9f07d"},
		{ImageHashDHash, true, "a72375ca2dcfac2b395e970a02f48922d8aacb9c26a4f610863f1a5358efdb82"},
		{ImageHashPHash, false, "41e878a3a09c3d97b95fd569a2d3a0dce7882f71c44d45f9eef94f40bf876871"},
		{ImageHashPHash, true, "62f0f83d7953d8e5015bfbbabbf3b227c2e84dcce0b18fa347b693221be4bc23"},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 2, 8} {
			name := tc.mode + "/mutate=" + strconv.FormatBool(tc.mutate) + "/workers=" + strconv.Itoa(workers)
			t.Run(name, func(t *testing.T) {
				t.Setenv(parallel.EnvWorkers, strconv.Itoa(workers))
				cfg := DefaultConfig()
				cfg.Seed = 3
				cfg.NumAccounts = 300
				cfg.SpammerFraction = 0.2
				cfg.AccountsPerCampaign = 10
				cfg.ImageHashMode = tc.mode
				cfg.MutateCampaignImages = tc.mutate
				w, err := NewWorld(cfg)
				if err != nil {
					t.Fatal(err)
				}
				now := w.start.Add(6 * time.Hour)
				for i := 0; i < 10; i++ {
					w.SpawnSpammer(now)
				}
				if got := worldDigest(w); got != tc.want {
					t.Fatalf("world digest = %s, want %s", got, tc.want)
				}
			})
		}
	}
}
