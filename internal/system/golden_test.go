package system

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"

	"surfbless/internal/config"
)

// runGolden pins the SHA-256 of the JSON-encoded Run result for three
// applications of the §5.2 mix on each NoC, at 500 instructions per
// core (canneal then evicts L2 lines, so victim choice is covered).
// The digests were recorded when every tag line was allocated before
// cycle 0, every directory line carried a sharer map and every
// protocol packet was allocated afresh, so they prove the lazy tag
// store, the node-set directory and packet recycling left every result
// bit-identical.
var runGolden = map[string]string{
	"swaptions/WH":   "2666a2e64a99cf44bc598ab1afe2b7b00e60c6d34d77343bff4eee8c5545829d",
	"swaptions/Surf": "6adb7c81852675802c18d2ba040d99b3d20fb9faf13cd706a33a8a919546b966",
	"swaptions/SB":   "07ce0541a998624df9a3d446208e1d5f960a9536650b34331ecf2a6eb0081256",
	"x264/WH":        "6362e8b339df52a75d8563019c40a3b3b4375892b8d0d86f38c5471769d699fa",
	"x264/Surf":      "1cfd7b1796dddd03d26b62fed55b59687b7f3571f76d168133ad21ff4290ce79",
	"x264/SB":        "4626935e34da93933d296f151cc90dba367204b1c9a534444a3ccc7fba0dc446",
	"canneal/WH":     "7bd851f3bf007598aee8df98ae1fd19d42bf9561a93a60559a48dc3b76b9a7a9",
	"canneal/Surf":   "2f9908a96f361391b0d3e803678c11940d4c1c1087e0562ccb50e5831d959c35",
	"canneal/SB":     "b2b40ea49d66763bc919085f4ffa59963d6895262bee96d7385843142dab8556",
}

func TestRunResultsGolden(t *testing.T) {
	for _, app := range []string{"swaptions", "x264", "canneal"} {
		for _, model := range []config.Model{config.WH, config.Surf, config.SB} {
			key := app + "/" + model.String()
			b, err := json.Marshal(shortRun(t, model, app, 500))
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != runGolden[key] {
				t.Errorf("%s: result digest %s, want %s", key, got, runGolden[key])
			}
		}
	}
}
