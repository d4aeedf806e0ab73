# jq-free JSON reading for the service scripts, whatever the document's
# whitespace (dicheckd answers compact JSON, `dicheck -json` prints it
# indented). Source it: . scripts/json.sh

# flat FILE: print every scalar of a JSON document as path=value, one a
# line. Object keys join with ".", array elements add "[]" (the
# violations' rules are violations[].rule), strings print without their
# quotes with escapes left as written, and an empty object or array
# prints {} or [] as its value.
flat() {
  awk 'BEGIN { RS = "\001" }
  function at() {
    if (typ[d] == "[") return pre[d] "[]"
    return pre[d] == "" ? key : pre[d] "." key
  }
  {
    s = $0; n = length(s); d = 0; key = ""
    for (i = 1; i <= n; i++) {
      c = substr(s, i, 1)
      if (c ~ /[ \t\r\n,:]/) continue
      if (c == "{" || c == "[") {
        v = at(); cnt[d]++
        d++; pre[d] = v; typ[d] = c; cnt[d] = 0; key = ""
        continue
      }
      if (c == "}" || c == "]") {
        if (cnt[d] == 0) print pre[d] "=" (c == "}" ? "{}" : "[]")
        d--; key = ""
        continue
      }
      if (c == "\"") {
        j = i + 1
        while (j <= n && (e = substr(s, j, 1)) != "\"") j += (e == "\\") ? 2 : 1
        str = substr(s, i + 1, j - i - 1); i = j
        if (typ[d] == "{" && key == "") { key = str; continue }
      } else {
        j = i
        while (j <= n && substr(s, j, 1) !~ /[ \t\r\n,}\]]/) j++
        str = substr(s, i, j - i); i = j - 1
      }
      print at() "=" str; cnt[d]++; key = ""
    }
  }' "$1"
}

# field FILE PATH: the first value flat prints for PATH (a top-level key
# is its bare name); empty when FILE has none.
field() {
  flat "$1" | awk -v p="$2=" '!done && index($0, p) == 1 { print substr($0, length(p) + 1); done = 1 }'
}

# has FILE PATH=VALUE: whether flat prints exactly that line for FILE.
has() {
  flat "$1" | grep -xF -- "$2" > /dev/null
}
