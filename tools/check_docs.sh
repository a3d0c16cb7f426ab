#!/bin/sh
# Documentation drift check, run as a CTest (`check_docs`):
#
#   1. docs/cli.md is the CLI's manifest: each command form `healers help`
#      prints has a `### healers <form>` heading that lists the same flags,
#      flag for flag, with the same operand or `--type` values marked on the
#      flags only those values take, and every `healers <subcommand>` the
#      reference documents still exists.
#   2. Every relative markdown link in the repo's *.md files resolves to a
#      file that exists (external http(s) links and pure #anchors are not
#      checked).
#   3. While the CLI exposes an opt-in mode (`--repair`, `--debloat` in
#      `healers help`), its documentation (docs/repair.md, docs/debloat.md)
#      must exist and be referenced from docs/cli.md, docs/architecture.md,
#      and README.md.
#
# Usage: tools/check_docs.sh <healers-binary> <repo-root>
set -eu

healers="${1:?usage: check_docs.sh <healers-binary> <repo-root>}"
root="${2:?usage: check_docs.sh <healers-binary> <repo-root>}"
cli_doc="$root/docs/cli.md"
fail=0

[ -f "$cli_doc" ] || { echo "check_docs: missing $cli_doc" >&2; exit 1; }

help_text="$("$healers" help)"

# --- 1a. each command form's heading lists exactly its flags ----------------
# `healers help` prints one synopsis per command form, indented two spaces;
# docs/cli.md heads each form's section with the same synopsis. A form is the
# synopsis's leading lowercase words ("fleet ingest"); its flags are every
# --long flag plus -o, and a flag only some values take carries them as
# "[--seed N (--type testing)]", or without brackets when those values
# require it ("--campaign file (--type robustness|repair)"). The two sides
# must agree in both directions.
manifest() {
  while IFS= read -r synopsis; do
    [ -n "$synopsis" ] || continue
    form="$(printf '%s\n' "$synopsis" |
      awk '{ f = $1; for (i = 2; i <= NF && $i ~ /^[a-z][a-z-]*$/; i++) f = f " " $i; print f }')"
    synopsis_flags="$(printf '%s\n' "$synopsis" | grep -oE -- '--[a-z][a-z-]*|\[-o ' |
      sed 's/^\[//; s/ $//' | sort -u | tr '\n' ' ')"
    scoped_flags="$(printf '%s\n' "$synopsis" |
      grep -oE -- '\[?--[a-z-]+( [^] ()[]+)? \([^)]*\)\]?' |
      sed 's/^\(\[\{0,1\}--[a-z-]*\)[^(]* (/\1(/' | sort | tr '\n' ' ')"
    printf '%s:%s%s\n' "$form" "$synopsis_flags" "$scoped_flags"
  done
}
commands="$(printf '%s\n' "$help_text" | sed -n 's/^  \([a-z][a-z-]*\).*/\1/p' | sort -u)"
flags="$(printf '%s\n' "$help_text" | grep -o -- '--[a-z-]*' | sort -u)"
help_manifest="$(printf '%s\n' "$help_text" | sed -n 's/^  \([a-z].*\)$/\1/p' | manifest)"
doc_manifest="$(sed -n 's/^### `healers \(.*\)`$/\1/p' "$cli_doc" | manifest)"

while IFS= read -r entry; do
  printf '%s\n' "$doc_manifest" | grep -qxF -- "$entry" && continue
  echo "check_docs: 'healers help' has '${entry%%:*}' with flags [${entry#*:}] but no docs/cli.md heading lists exactly those" >&2
  fail=1
done <<EOF_HELP
$help_manifest
EOF_HELP
while IFS= read -r entry; do
  printf '%s\n' "$help_manifest" | grep -qxF -- "$entry" && continue
  echo "check_docs: docs/cli.md heads '${entry%%:*}' with flags [${entry#*:}] but 'healers help' does not list exactly those" >&2
  fail=1
done <<EOF_DOC
$doc_manifest
EOF_DOC

# --- 1b. no documented subcommand has rotted away ---------------------------
# The reference marks each documented subcommand with a '### `healers <cmd>'
# heading; each must still be a real command.
doc_commands="$(sed -n 's/^### `healers \([a-z][a-z-]*\).*/\1/p' "$cli_doc" | sort -u)"
for cmd in $doc_commands; do
  if ! printf '%s\n' "$commands" | grep -qx "$cmd"; then
    echo "check_docs: docs/cli.md documents 'healers $cmd' but 'healers help' does not list it" >&2
    fail=1
  fi
done

# --- 1c. opt-in modes ship with their documentation --------------------------
# --repair is only as usable as its policy spec, and --debloat is a security
# contract (out-of-profile calls trap). While the CLI lists a mode's flag, its
# doc must exist and the three entry points must link it.
for mode in repair debloat; do
  printf '%s\n' "$flags" | grep -qx -- "--$mode" || continue
  if [ ! -f "$root/docs/$mode.md" ]; then
    echo "check_docs: 'healers help' lists --$mode but docs/$mode.md is missing" >&2
    fail=1
    continue
  fi
  for ref in docs/cli.md docs/architecture.md README.md; do
    if ! grep -q "$mode\.md" "$root/$ref"; then
      echo "check_docs: $ref does not reference docs/$mode.md (required while --$mode exists)" >&2
      fail=1
    fi
  done
done

# --- 2. every relative markdown link resolves -------------------------------
for md in "$root"/*.md "$root"/docs/*.md; do
  [ -f "$md" ] || continue
  dir="$(dirname "$md")"
  # Extract ](target) link targets; one per line, tolerating several per line.
  links="$(grep -o '](\([^)]*\))' "$md" | sed 's/^](\(.*\))$/\1/')" || continue
  for link in $links; do
    case "$link" in
      http://*|https://*|\#*|mailto:*) continue ;;
    esac
    target="${link%%#*}"                # drop an in-file anchor
    [ -n "$target" ] || continue
    if [ ! -e "$dir/$target" ]; then
      echo "check_docs: broken link '$link' in ${md#"$root"/}" >&2
      fail=1
    fi
  done
done

if [ "$fail" -ne 0 ]; then
  echo "check_docs: FAILED — docs drifted from the CLI or contain broken links" >&2
  exit 1
fi
echo "check_docs: docs/cli.md matches 'healers help'; all markdown links resolve"
