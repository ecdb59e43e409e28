# Runs a bench binary in WORK_DIR and requires the JSON file it writes
# there to match the checked-in copy byte for byte.
#
#   cmake -DBENCH=<binary> -DJSON=<file name> -DGOLDEN=<checked-in file>
#         -DWORK_DIR=<directory> -P bench_json_matches.cmake
file(MAKE_DIRECTORY "${WORK_DIR}")
file(REMOVE "${WORK_DIR}/${JSON}")
execute_process(COMMAND "${BENCH}" WORKING_DIRECTORY "${WORK_DIR}"
                RESULT_VARIABLE status OUTPUT_QUIET)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${status}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${WORK_DIR}/${JSON}" "${GOLDEN}"
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "${WORK_DIR}/${JSON} differs from ${GOLDEN}; "
                      "diff the two files to see which rows moved")
endif()
