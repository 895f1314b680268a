# CLI-level test of c3tool's snapshot round trip driven by ctest:
#   gen -> prepare -> inspect (human-readable header/fingerprint/sections)
#   -> batch --snapshot with the typed query grammar and warm-up hints.
# Failures print the command output; any unexpected exit code or missing
# marker string fails the test. Driven with -DC3TOOL=<binary> -DWORK_DIR=<dir>.
if(NOT DEFINED C3TOOL OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DC3TOOL=<c3tool> -DWORK_DIR=<dir> -P c3tool_cli_test.cmake")
endif()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

function(run_c3tool expect_rc out_var)
  execute_process(
    COMMAND ${C3TOOL} ${ARGN}
    WORKING_DIRECTORY ${WORK_DIR}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL ${expect_rc})
    message(FATAL_ERROR "c3tool ${ARGN}: exit ${rc}, expected ${expect_rc}\n${out}\n${err}")
  endif()
  set(${out_var} "${out}\n${err}" PARENT_SCOPE)
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

message(STATUS "c3tool CLI test passed")
