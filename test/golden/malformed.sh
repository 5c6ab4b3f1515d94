#!/bin/sh
# Malformed `dyno sql` scripts and an unwritable output file: each must
# end dyno with status 1 and exactly one line on standard error.  Prints
# every case's status and line, and exits 1 when a case breaks that rule.
#
# usage: sh malformed.sh DYNO_EXE

dyno=$1
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
broken=0

# [check NAME ARGS...] runs dyno on ARGS.
check() {
  name=$1
  shift
  "$dyno" "$@" >/dev/null 2>"$tmp/err"
  status=$?
  echo "$name: status $status"
  cat "$tmp/err"
  if [ "$status" -ne 1 ] || [ "$(wc -l <"$tmp/err")" -ne 1 ]; then
    broken=1
  fi
}

# [script NAME TEXT] runs `dyno sql` on the script TEXT.
script() {
  printf '%s\n' "$2" >"$tmp/$1.sql"
  check "$1" sql "$tmp/$1.sql"
}

view='CREATE TABLE a@b (x INT); CREATE VIEW V AS SELECT x FROM a@b;'

# Read: a view that does not resolve, a table created twice, a schema
# change at an unknown source or before the view, a view over an
# unknown source, an insert into an unknown relation, a load deleting an
# absent row, a second view.
script unknown-attribute \
  'CREATE TABLE a@b (x INT); CREATE VIEW V AS SELECT y FROM a@b;'
script where-unknown-alias \
  'CREATE TABLE a@b (x INT); CREATE VIEW V AS SELECT x FROM a@b WHERE c.x = 1; INSERT INTO a@b VALUES (1);'
script join-unknown-alias \
  'CREATE TABLE a@b (x INT); CREATE VIEW V AS SELECT x FROM a@b WHERE a.x = c.x; INSERT INTO a@b VALUES (1);'
script ambiguous-attribute \
  'CREATE TABLE a@b (x INT); CREATE TABLE c@b (x INT); CREATE VIEW V AS SELECT x FROM a@b, c@b;'
script duplicate-column \
  'CREATE TABLE a@b (x INT); CREATE VIEW V AS SELECT x AS y, x AS y FROM a@b;'
script duplicate-table \
  'CREATE TABLE a@b (x INT); CREATE TABLE a@b (y INT); CREATE VIEW V AS SELECT x FROM a@b;'
script unknown-source "$view ALTER TABLE a@zz DROP COLUMN x;"
script sc-before-view \
  'CREATE TABLE a@b (x INT); ALTER TABLE a@b DROP COLUMN x; CREATE VIEW V AS SELECT x FROM a@b;'
script view-unknown-source 'CREATE VIEW V AS SELECT x FROM a@b;'
script insert-unknown-relation "$view INSERT INTO c@b VALUES (1);"
script load-deletes-absent-row \
  'CREATE TABLE a@b (x INT); DELETE FROM a@b VALUES (5); CREATE VIEW V AS SELECT x FROM a@b;'
script second-view "$view CREATE VIEW W AS SELECT x FROM a@b;"

# Run: a commit its source rejects.
script drop-missing-column "$view ALTER TABLE a@b DROP COLUMN z;"
script alter-missing-relation "$view ALTER TABLE c@b DROP COLUMN x;"
script delete-absent-row "$view DELETE FROM a@b VALUES (5);"
script create-renamed-onto \
  "$view ALTER SOURCE b RENAME TABLE a TO c; CREATE TABLE c@b (y INT);"

check unwritable-output run --dus 3 --json /nonexistent/dir/x.json

exit $broken
