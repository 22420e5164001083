#!/bin/sh
# Stand-in build toolchain for the benchmark's confirmation runs.
#
#   toolchain.sh LOG compile
#   toolchain.sh LOG run MAP TEST_CLASS
#
# Every call appends one line to LOG. "compile" always succeeds, like a
# project-wide `mvn -q test-compile`. "run" succeeds only when
# src/test/java/TEST_CLASS.java (relative to the working directory) exists
# and holds the focal call to the entry method that MAP names for
# TEST_CLASS ("TEST_CLASS OWNER METHOD" lines) plus both dual-oracle
# asserts. Shell builtins only, so a call costs one process start.

log=$1
phase=$2
echo "$phase ${4:-}" >> "$log"
[ "$phase" = compile ] && exit 0
[ "$phase" = run ] || exit 2
map=$3
class=$4
file="src/test/java/$class.java"
[ -f "$file" ] || exit 1

owner=
while read -r name o m; do
    if [ "$name" = "$class" ]; then
        owner=$o
        method=$m
        break
    fi
done < "$map"
[ -n "$owner" ] || exit 1

focal=0 triggered=0 condition=0
while IFS= read -r line; do
    case $line in
        *"assertTrue(MethodCallInterceptor.isTriggered());"*) triggered=1 ;;
        *"assertTrue(MethodCallInterceptor.isConditionMet());"*) condition=1 ;;
        *"$owner"*".$method("*) focal=1 ;;
    esac
done < "$file"
[ "$focal$triggered$condition" = 111 ] || exit 1
exit 0
