      program gotoexit
c     A GOTO out of a DO body ends the loop, with the index at its
c     current value: this prints only "at 10 1 1".
      k = 0
      do i = 1, 3
        k = k + 1
        if (i .eq. 1) goto 10
      end do
      print *, 'after loop', k
 10   print *, 'at 10', i, k
      end
