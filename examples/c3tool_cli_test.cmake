# CLI-level test of c3tool's snapshot round trip driven by ctest:
#   gen -> prepare -> inspect (human-readable header/fingerprint/sections)
#   -> batch --snapshot with the typed query grammar and warm-up hints,
# plus the refusal of malformed ports by c3tool trace --connect and c3serve,
# and of malformed numeric flags.
# Failures print the command output; any unexpected exit code or missing
# marker string fails the test. Driven with -DC3TOOL=<binary>
# -DC3SERVE=<binary> -DWORK_DIR=<dir>.
if(NOT DEFINED C3TOOL OR NOT DEFINED C3SERVE OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DC3TOOL=<c3tool> -DC3SERVE=<c3serve> -DWORK_DIR=<dir> -P c3tool_cli_test.cmake")
endif()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

# A timeout bounds every run: a server that accepts a bad port would
# otherwise listen until ctest kills the whole test.
function(run_tool tool expect_rc out_var)
  execute_process(
    COMMAND ${tool} ${ARGN}
    WORKING_DIRECTORY ${WORK_DIR}
    TIMEOUT 30
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL ${expect_rc})
    message(FATAL_ERROR "${tool} ${ARGN}: exit ${rc}, expected ${expect_rc}\n${out}\n${err}")
  endif()
  set(${out_var} "${out}\n${err}" PARENT_SCOPE)
endfunction()

function(run_c3tool expect_rc out_var)
  run_tool(${C3TOOL} ${expect_rc} result ${ARGN})
  set(${out_var} "${result}" PARENT_SCOPE)
endfunction()

function(expect_match text pattern)
  if(NOT "${text}" MATCHES "${pattern}")
    message(FATAL_ERROR "expected output to match '${pattern}', got:\n${text}")
  endif()
endfunction()

# gen + prepare: a small social graph, prepared for the default c3list.
run_c3tool(0 out gen --kind social --n 400 --m 3200 --seed 5 --out g.txt)
run_c3tool(0 out prepare --in g.txt --out g.c3snap)
expect_match("${out}" "prepared g.txt with c3List")

# inspect: header, fingerprint, artifact names, and section table.
run_c3tool(0 out inspect --in g.c3snap)
expect_match("${out}" "c3 snapshot v1")
expect_match("${out}" "400 vertices")
expect_match("${out}" "fingerprint: alg c3List, vertex order default, edge order approx-community-degeneracy")
expect_match("${out}" "artifacts \\(mask 0x[0-9a-f]+\\): dag communities")
expect_match("${out}" "graph.offsets")

# inspect must refuse a non-snapshot file with a precise message.
run_c3tool(1 out inspect --in g.txt)
expect_match("${out}" "bad magic")

# batch over the snapshot with the typed grammar: per-query worker caps,
# list limits, and the warm-up hints on open.
file(WRITE ${WORK_DIR}/q.txt
  "# typed query file\n"
  "count 3\n"
  "count 4 workers=2\n"
  "list 3 limit=5\n"
  "hasclique 3\n"
  "spectrum 5\n"
  "maxclique witness=0\n")
run_c3tool(0 out batch --snapshot g.c3snap --queries q.txt --prefault --mlock)
expect_match("${out}" "count 4 workers=2")
expect_match("${out}" "list 3: 5 cliques \\[truncated\\]")
expect_match("${out}" "6 queries")
expect_match("${out}" "snapshot")

# a malformed query line is a hard error naming the offending token.
file(WRITE ${WORK_DIR}/bad.txt "count 4\ncuont 5\n")
run_c3tool(2 out batch --snapshot g.c3snap --queries bad.txt)
expect_match("${out}" "line 2")
expect_match("${out}" "cuont")

# a file with only comments and blank lines holds no queries: refused.
file(WRITE ${WORK_DIR}/empty.txt "# nothing to ask\n\n")
run_c3tool(2 out batch --snapshot g.c3snap --queries empty.txt)
expect_match("${out}" "holds no queries")

# A port must be decimal 0..65535: a bad one is refused with exit 2 and a
# message naming it — never wrapped (70000 -> 4464) or silently replaced.
foreach(bad_port abc 70000 -1 80x)
  run_c3tool(2 out trace --connect 127.0.0.1:${bad_port} --out t.json)
  expect_match("${out}" "bad --connect port '${bad_port}'")
  run_tool(${C3SERVE} 2 out --graph g=g.txt --port ${bad_port})
  expect_match("${out}" "bad --port '${bad_port}'")
endforeach()

# A numeric flag that is not a number is refused the same way, never read
# as 0 (--cache abc once served with the answer cache silently off).
run_tool(${C3SERVE} 2 out --graph g=g.txt --port 0 --cache abc)
expect_match("${out}" "c3serve: bad --cache 'abc'")
run_tool(${C3SERVE} 2 out --graph g=g.txt --port 0 --inflight x)
expect_match("${out}" "c3serve: bad --inflight 'x'")
run_c3tool(2 out count --in g.txt --k abc)
expect_match("${out}" "c3tool count: bad --k 'abc'")

message(STATUS "c3tool CLI test passed")
