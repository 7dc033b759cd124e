# Run PROGRAM with the single argument ARG and check how it exits:
#   EXPECT_EXIT 0  - exit 0, usage on stdout, nothing on stderr
#   otherwise      - exit EXPECT_EXIT, nothing on stdout, exactly one
#                    line on stderr
# Usage: cmake -DPROGRAM=... -DARG=... -DEXPECT_EXIT=N -P expect_exit.cmake

execute_process(COMMAND ${PROGRAM} ${ARG}
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)

if(NOT code STREQUAL "${EXPECT_EXIT}")
    message(FATAL_ERROR "${PROGRAM} ${ARG}: exit '${code}', expected "
        "${EXPECT_EXIT}\nstdout:\n${out}\nstderr:\n${err}")
endif()

if(EXPECT_EXIT EQUAL 0)
    if(NOT out MATCHES "^usage: ")
        message(FATAL_ERROR "${PROGRAM} ${ARG}: no usage on stdout:\n${out}")
    endif()
    if(NOT err STREQUAL "")
        message(FATAL_ERROR "${PROGRAM} ${ARG}: stderr not empty:\n${err}")
    endif()
else()
    if(NOT out STREQUAL "")
        message(FATAL_ERROR "${PROGRAM} ${ARG}: stdout not empty:\n${out}")
    endif()
    string(REGEX MATCHALL "\n" newlines "${err}")
    list(LENGTH newlines lines)
    if(NOT lines EQUAL 1 OR NOT err MATCHES "\n$")
        message(FATAL_ERROR "${PROGRAM} ${ARG}: expected one stderr "
            "line, got:\n${err}")
    endif()
endif()
