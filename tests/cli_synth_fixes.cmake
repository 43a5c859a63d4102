# synth emitter settings, one check per CHECK value:
#   resume_width    a snapshot taken at --width 8 resumes into 8-bit RTL,
#                   not RTL at the --width default of 4;
#   coverage_budget --coverage picks the pattern budget --bist-verilog
#                   builds its RTL and golden signatures for, as it does
#                   for --plan and --selftest.

execute_process(COMMAND ${LOWBIST} bench ex1
                OUTPUT_FILE ${WORKDIR}/fix_${CHECK}_ex1.dfg RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench dump failed")
endif()

if(CHECK STREQUAL "resume_width")
  execute_process(
    COMMAND ${LOWBIST} synth ${WORKDIR}/fix_${CHECK}_ex1.dfg --dump-ir bist
            --width 8 --ir-out ${WORKDIR}/fix_w8.json
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "--dump-ir bist --width 8 failed")
  endif()
  execute_process(
    COMMAND ${LOWBIST} synth --resume-from ${WORKDIR}/fix_w8.json --verilog
    OUTPUT_VARIABLE out RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "--resume-from --verilog failed")
  endif()
  string(FIND "${out}" "[7:0]" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "resumed RTL is not 8 bits wide:\n${out}")
  endif()
elseif(CHECK STREQUAL "coverage_budget")
  execute_process(
    COMMAND ${LOWBIST} synth ${WORKDIR}/fix_${CHECK}_ex1.dfg --coverage 0.9
            --bist-verilog
    OUTPUT_VARIABLE out RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "synth --coverage --bist-verilog failed")
  endif()
  if(NOT out MATCHES "pattern budget for [^:]*: ([0-9]+)")
    message(FATAL_ERROR "no pattern budget line:\n${out}")
  endif()
  string(FIND "${out}" "localparam PATTERNS = ${CMAKE_MATCH_1};" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR
      "self-testing RTL does not run the ${CMAKE_MATCH_1}-pattern budget")
  endif()
else()
  message(FATAL_ERROR "unknown CHECK '${CHECK}'")
endif()
